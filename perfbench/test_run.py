"""Tests of the compare mode's verdicts: python3 perfbench/test_run.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import verdict  # noqa: E402


def runs(values):
    return {seed: v for seed, v in enumerate(values)}


class VerdictTest(unittest.TestCase):
    def test_a_change_winning_every_pair_by_more_than_the_spread_improves(self):
        old = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        new = runs([80, 81, 79, 80, 82, 78, 80, 81, 79, 80])
        self.assertEqual(verdict(old, new, "lower", 0.1), ("improved", 1.0))

    def test_higher_is_better_flips_the_sign(self):
        old = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        new = runs([80, 81, 79, 80, 82, 78, 80, 81, 79, 80])
        self.assertEqual(verdict(old, new, "higher", 0.1)[0], "worse")

    def test_a_small_move_within_the_bound_is_no_worse(self):
        old = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        new = runs([103, 104, 102, 103, 105, 101, 103, 104, 102, 103])
        self.assertEqual(verdict(old, new, "lower", 0.1)[0], "no worse than bound")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        old = runs([50, 150, 60, 140, 100, 70, 130, 90, 110, 100])
        new = runs([60, 160, 70, 150, 110, 80, 140, 100, 120, 110])
        self.assertEqual(verdict(old, new, "lower", 0.1)[0], "unresolved")

    def test_nine_tenths_of_pairs_are_needed_to_claim_a_gain(self):
        old = runs([100] * 10)
        new = runs([90] * 8 + [110] * 2)
        v, win = verdict(old, new, "lower", 0.2)
        self.assertEqual(win, 0.8)
        self.assertNotEqual(v, "improved")

    def test_sets_on_different_seeds_pair_up_in_run_order(self):
        old = {1: 100, 2: 101, 3: 99}
        new = {7: 80, 8: 81, 9: 120}
        self.assertAlmostEqual(verdict(old, new, "lower", 0.25)[1], 2 / 3)


if __name__ == "__main__":
    unittest.main()
