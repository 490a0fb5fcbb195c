"""A catalogue of mutants that the test suite must kill, and its runner.

Each mutant rewrites exact snippets of one file, in the library or in a test
helper, and names the tests that must each fail once it is applied.  Run

    python tests/mutants.py [NAME ...]

to apply every mutant (or the named ones) to a fresh copy of the repository
in a temporary directory, run its tests there and list the survivors: the
mutants with a named test that still passes.  The exit status is 1 if any
survive.  Every mutant costs a pytest process, so the runner is not part of
the tier-1 suite; pytest does not collect this file.  ``tests/test_mutants.py`` checks in tier-1 that
every old snippet occurs exactly once in the current source, so a refactor
has to carry the catalogue along.

A survivor is a gap in the tests: mend it with a new or sharper test, never
by editing the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    edits: tuple  # (old, new) snippet pairs, each old snippet unique in the file
    tests: tuple  # pytest node ids, each of which must fail
    why: str


MUTANTS = (
    # -- the fail-stop and contract rules -----------------------------------------
    Mutant(
        "oracle-replay-does-not-wrap",
        "src/decrsp/harness.py",
        (("                raise UpdateError(\"update %d (%s) failed: %s: %s\" % (\n"
          "                    update_index, update_line(item), type(exc).__name__, exc)) from exc\n",
          "                raise\n"),),
        tuple("tests/test_harness.py::test_oracle_replay_fault_inside_an_update_is_one_error_line[%s]"
              % mode for mode in ("check", "sssp-oracle-check", "apsp-oracle-check"))
        + ("tests/test_harness.py::test_cli_fault_inside_an_update_is_one_error_line[sssp]",
           "tests/test_harness.py::test_cli_fault_inside_an_update_is_one_error_line[apsp]"),
        "the replay lets a fault inside an update escape as a traceback, in every mode",
    ),
    Mutant(
        "cli-does-not-wrap",
        "src/decrsp/harness.py",
        (("            if not (config.oracle_check and isinstance(exc, AssertionError)):\n",
          "            if not isinstance(exc, AssertionError):\n"),),
        ("tests/test_harness.py::test_an_assertion_inside_an_update_fails_the_update_unless_the_"
         "oracle_reports_it[sssp]",
         "tests/test_harness.py::test_an_assertion_inside_an_update_fails_the_update_unless_the_"
         "oracle_reports_it[apsp]"),
        "decrsp sssp and decrsp apsp end the replay at an AssertionError inside an update "
        "and exit 0, as if the oracle had reported it",
    ),
    Mutant(
        "stream-answers-held-to-the-end",
        "src/decrsp/cli.py",
        (("        run_with_oracle(schedule, config, out)\n",
          "        held = io.StringIO()\n"
          "        run_with_oracle(schedule, config, held)\n"
          "        out.write(held.getvalue())\n"),),
        ("tests/test_harness.py::test_cli_fault_inside_an_update_is_one_error_line[sssp]",
         "tests/test_harness.py::test_cli_fault_inside_an_update_is_one_error_line[apsp]"),
        "decrsp sssp and decrsp apsp hold their answer lines until the replay ends, so a "
        "failing update loses the answers before it",
    ),
    Mutant(
        "oracle-skips-probe-checks",
        "src/decrsp/harness.py",
        (("            if config.oracle_check:\n"
          "                judge(\"pair=%d,%d\" % (item.u, item.v), est,\n"
          "                      cross_checked_distances(graph, item.u).get(item.v, inf))\n", ""),),
        ("tests/test_harness.py::test_oracle_checks_every_probe_answer_off_the_source_row",),
        "the oracle replay checks the source row at each step but no probe answer",
    ),
    Mutant(
        "source-rows-skip-stretch-check",
        "src/decrsp/harness.py",
        (("            stretch = judge(\"node=%d\" % v, answer(config.source, v), dist.get(v, inf))\n"
          "            max_stretch = max(max_stretch, stretch)\n",
          "            est, d = answer(config.source, v), dist.get(v, inf)\n"
          "            if est < d:\n"
          "                judge(\"node=%d\" % v, est, d)\n"),),
        ("tests/test_harness.py::test_forged_over_stretched_source_row_estimate_is_reported_and_"
         "sets_max_stretch",),
        "an oracle step judges the source row for underestimates only: no stretch over "
        "the bound is reported, and max_stretch stays 0",
    ),
    Mutant(
        "failing-report-exits-with-its-count",
        "src/decrsp/cli.py",
        (("    if report.get(\"underestimate_violations\") or report.get(\"invariant_failures\"):\n"
          "        return 1\n",
          "    status = report.get(\"underestimate_violations\") or report.get(\"invariant_failures\")\n"
          "    if status:\n"
          "        return status\n"),),
        ("tests/test_harness.py::test_a_failing_check_exits_1_whatever_its_failure_count",),
        "a failing report exits with its failure count, which the shell takes mod 256, "
        "so 256 underestimates exit 0",
    ),
    Mutant(
        "poisoned-full-range-keeps-bands",
        "src/decrsp/layered.py",
        (("        self.stacks, self.mirrors, self._units, self._keys, self._answers = [], [], [], {}, {}\n",
          "        self._units, self._keys, self._answers = [], {}, {}\n"),),
        ("tests/test_layered.py::test_a_failure_inside_an_update_poisons_the_instance[exact]",
         "tests/test_layered.py::test_a_failure_inside_an_update_poisons_the_instance[layered]"),
        "a poisoned FullRangeSssp keeps its bands and mirrors",
    ),
    Mutant(
        "seed-drawn-only-for-full-range",
        "src/decrsp/apsp.py",
        (("            seed = next(counter)\n"
          "            exact = exact_band_depth(view.node_count(), view.max_weight, eps_run)\n"
          "            if exact is None:\n"
          "                return FullRangeSssp(view, root, eps_run, seed=seed)\n",
          "            exact = exact_band_depth(view.node_count(), view.max_weight, eps_run)\n"
          "            if exact is None:\n"
          "                return FullRangeSssp(view, root, eps_run, seed=next(counter))\n"),),
        ("tests/test_apsp.py::test_every_contract_draws_one_seed_in_build_order",),
        "the all-pairs factory draws a seed only for a FullRangeSssp",
    ),
    Mutant(
        "contract-tree-reads-stacks",
        "tests/test_apsp.py",
        (("    return contract.stacks[-1] if isinstance(contract, FullRangeSssp) else contract\n",
          "    return contract.stacks[-1]\n"),),
        ("tests/test_apsp.py::test_a_fault_in_a_set_watcher_tree_poisons_the_state[8]",
         "tests/test_apsp.py::test_a_fault_in_a_ball_inner_tree_poisons_the_state[8]"),
        "the test helper reads .stacks[-1] of a bare EsTree",
    ),
    Mutant(
        "poisoned-apsp-keeps-balls",
        "src/decrsp/apsp.py",
        (("        self.balls = None\n", ""),),
        ("tests/test_apsp.py::test_rejected_update_keeps_tails_and_a_fault_poisons_the_state",
         "tests/test_apsp.py::test_a_fault_on_the_benchmark_shape_poisons_the_state",
         "tests/test_apsp.py::test_a_fault_in_a_ball_inner_tree_poisons_the_state[8]"),
        "a poisoned ApspState keeps its ball system",
    ),
    # -- the input grammar ----------------------------------------------------------
    Mutant(
        "reader-splits-at-any-whitespace",
        "src/decrsp/graph.py",
        (("            fields = re.split(\"[ \\t]+\", text)\n",
          "            fields = text.split()\n"),),
        ("tests/test_graph_core.py::test_fields_are_separated_by_spaces_and_tabs_only[no-break-space]",
         "tests/test_graph_core.py::test_fields_are_separated_by_spaces_and_tabs_only[vertical-tab]",
         "tests/test_input_boundary.py::test_cli_rejects_integers_and_separators_outside_the_grammar[no-break-space-sssp]",
         "tests/test_input_boundary.py::test_cli_rejects_integers_and_separators_outside_the_grammar[no-break-space-update-check]"),
        "the line reader splits fields at any Unicode whitespace, U+00A0 and \\v included",
    ),
    Mutant(
        "integer-check-falls-back-to-int",
        "src/decrsp/graph.py",
        (("    if not all(re.fullmatch(\"-?[0-9]+\", f) for f in fields):\n"
          "        raise ValueError\n", ""),),
        ("tests/test_graph_core.py::test_an_integer_is_ascii_digits_after_an_optional_minus[arabic-indic-digit]",
         "tests/test_graph_core.py::test_an_integer_is_ascii_digits_after_an_optional_minus[plus-sign]",
         "tests/test_graph_core.py::test_an_integer_is_ascii_digits_after_an_optional_minus[digit-separator]",
         "tests/test_input_boundary.py::test_cli_rejects_integers_and_separators_outside_the_grammar[arabic-indic-digit-sssp]",
         "tests/test_input_boundary.py::test_cli_rejects_integers_and_separators_outside_the_grammar[plus-sign-check]",
         "tests/test_input_boundary.py::test_cli_rejects_integers_and_separators_outside_the_grammar[digit-separator-sssp]"),
        "an integer field is whatever int() reads: +3, 1_0 and non-ASCII digits",
    ),
    Mutant(
        "out-of-range-update-format-error",
        "src/decrsp/graph.py",
        (("            raise UpdateError(\"node id %r outside [0, %d)\"",
          "            raise GraphFormatError(\"node id %r outside [0, %d)\""),),
        ("tests/test_graph_core.py::test_an_update_naming_a_node_outside_the_graph_is_rejected_"
         "and_poisons_nothing[v]",
         "tests/test_harness.py::test_cli_source_outside_graph_is_one_error_line"
         "[sssp-update-node-8-plain]",
         "tests/test_harness.py::test_cli_source_outside_graph_is_one_error_line"
         "[check-update-node-8-optimized]"),
        "an update naming a node outside the graph is a GraphFormatError, which the replay "
        "reports as a fault inside the update",
    ),
    Mutant(
        "digit-cap-off-by-one",
        "src/decrsp/graph.py",
        (("re.fullmatch(\"-?[0-9]{%d,}\" % (MAX_DIGITS + 1), f)",
          "re.fullmatch(\"-?[0-9]{%d,}\" % (MAX_DIGITS + 2), f)"),),
        ("tests/test_input_boundary.py::test_integer_fields_read_the_same_under_every_interpreter_"
         "digit_limit[probe-641]",
         "tests/test_input_boundary.py::test_integer_fields_read_the_same_under_every_interpreter_"
         "digit_limit[weight-641]"),
        "a field of one digit over the cap passes it, and int() reads it or not by the "
        "interpreter's digit limit",
    ),
    Mutant(
        "node-cap-off-by-one",
        "src/decrsp/graph.py",
        (("            if n > MAX_NODES:", "            if n > MAX_NODES + 1:"),),
        ("tests/test_graph_core.py::test_a_header_above_the_node_cap_is_rejected_before_the_graph_"
         "is_built[cap-plus-one]",
         "tests/test_input_boundary.py::test_cli_headers_at_their_limits[cap-plus-one]"),
        "a header one node over the cap is accepted and builds its graph",
    ),
    Mutant(
        "byte-order-mark-kept",
        "src/decrsp/cli.py",
        (("encoding=\"utf-8-sig\"", "encoding=\"utf-8\""),),
        ("tests/test_input_boundary.py::test_cli_skips_a_leading_byte_order_mark[graph]",
         "tests/test_input_boundary.py::test_cli_skips_a_leading_byte_order_mark[updates]"),
        "a leading byte-order mark sticks to the first field of either file",
    ),
    # -- distance bands: retirement, growth and the clamp -----------------------
    Mutant(
        "top-band-retired",
        "src/decrsp/layered.py",
        (("                    if structure is not top and structure.holds_only_root():\n",
          "                    if structure.holds_only_root():\n"),),
        ("tests/test_layered.py::test_retiring_bands_moves_no_answer_in_a_drain_that_builds_bands_late",
         "tests/test_layered.py::test_layered_drain_builds_bands_late_under_every_check",
         "tests/test_layered.py::test_default_mode_has_one_exact_band_below_unit_grain[20-40-1024-eps0-3]"),
        "the band over the top scale is retired like any other, so stacks can empty",
    ),
    Mutant(
        "assembly-retired-on-lower-tree",
        "src/decrsp/layered.py",
        (("        return self.lower.holds_only_root() and len(self.sg.tree.level) == 1\n",
          "        return self.lower.holds_only_root()\n"),),
        ("tests/test_layered.py::test_retiring_bands_moves_no_answer_in_a_drain_that_builds_bands_late",
         "tests/test_frozen_outputs.py::test_emissions_and_stretch_are_frozen[sssp-p4q3-late]"),
        "an assembly is retired once its lower tree holds the root alone, though its "
        "shortcut tree still answers",
    ),
    Mutant(
        "retired-work-not-in-stats",
        "src/decrsp/layered.py",
        (("        self._retired_scans += scans\n"
          "        self._retired_heap_ops += heap_ops\n", ""),),
        ("tests/test_layered.py::test_stats_keys_are_fixed_and_counters_never_decrease[exact]",
         "tests/test_layered.py::test_stats_keys_are_fixed_and_counters_never_decrease[layered]",
         "tests/test_layered.py::test_retiring_bands_moves_no_answer_in_a_drain_that_builds_bands_late"),
        "the work of retired bands drops out of stats(), so its counters fall",
    ),
    Mutant(
        "grow-on-stack-length",
        "src/decrsp/layered.py",
        (("        while needy and self._next_band < self._band_count - 1:\n"
          "            band = self._add_band(self._next_band, layered=True)\n",
          "        while needy and len(self.stacks) - 1 < self._band_count - 1:\n"
          "            band = self._add_band(len(self.stacks) - 1, layered=True)\n"),),
        ("tests/test_layered.py::test_retiring_bands_moves_no_answer_in_a_drain_that_builds_bands_late",
         "tests/test_frozen_outputs.py::test_emissions_and_stretch_are_frozen[sssp-p4q3-late]"),
        "_grow picks the next band from len(stacks), which retirement shrinks",
    ),
    Mutant(
        "settle-without-clamp",
        "src/decrsp/layered.py",
        (("        if least <= self._keys[node]:\n",
          "        if least == self._keys[node]:\n"),),
        ("tests/test_frozen_outputs.py::test_emissions_and_stretch_are_frozen[sssp-p4q3-late]",
         "tests/test_layered.py::test_layered_drain_builds_bands_late_under_every_check",
         "tests/test_layered.py::test_layered_state_machine::runTest"),
        "_settle sets a node's answer to its least band key even when that is lower",
    ),
    Mutant(
        "settle-multiplies-inf",
        "src/decrsp/layered.py",
        (("            try:\n"
          "                key = value * units[b]\n"
          "            except OverflowError:  # inf times a unit past the float range\n"
          "                continue\n",
          "            key = value * units[b]\n"),),
        tuple("tests/test_input_boundary.py::test_cli_answers_or_rejects_huge_weights_and_tiny_eps[%s]"
              % case for case in ("w-2p1023-sssp", "twelve-nodes-w-2p1022-check",
                                  "eps-320-ones-sssp-oracle")),
        "_settle multiplies a band's inf by its unit, which raises once the unit "
        "passes the float range",
    ),
    # -- the monotone tree's two-phase repair ---------------------------------------
    Mutant(
        "tree-key-below-old-level",
        "src/decrsp/monotone_tree.py",
        (("                    key = max(affected[v], d + w)\n",
          "                    key = d + w\n"),),
        ("tests/test_monotone_tree.py::test_stretched_route_keeps_affected_node_at_old_level",),
        "phase 2 keys an affected node by its route alone, so a stretched route "
        "can lower its level below the old one",
    ),
    Mutant(
        "tree-support-from-affected",
        "src/decrsp/monotone_tree.py",
        (("                if lv + w <= lu:\n"
          "                    if v not in affected:\n"
          "                        break\n",
          "                if lv + w <= lu:\n"
          "                    break\n"),),
        ("tests/test_monotone_tree.py::test_scripted_mixed_sequence_matches_simulator",
         "tests/test_acceptance.py::test_criterion_2_monotone_observation_suite_under_ball_joins",
         "tests/test_layered.py::test_layered_drain_builds_bands_late_under_every_check"),
        "phase 1 lets an affected neighbour support a node, so the node keeps "
        "a level that no edge supports once that neighbour rises",
    ),
    Mutant(
        "tree-tight-support-ignored",
        "src/decrsp/monotone_tree.py",
        (("                if lv + w <= lu:\n",
          "                if lv + w < lu:\n"),),
        ("tests/test_monotone_tree.py::test_tied_routes_pin_the_repair_work",),
        "phase 1 counts only a strictly shorter route as support, so a node on a "
        "tied route is repaired to the level it kept; only the work shows it",
    ),
    Mutant(
        "tree-requeues-tied-key",
        "src/decrsp/monotone_tree.py",
        (("                    if key <= cap and key < best.get(v, inf):\n",
          "                    if key <= cap and key <= best.get(v, inf):\n"),),
        ("tests/test_monotone_tree.py::test_tied_routes_pin_the_repair_work",),
        "phase 2 queues an affected node again at a key it already holds; only "
        "the work shows it",
    ),
    Mutant(
        "contract-support-strict",
        "src/decrsp/monotone_tree.py",
        (("        if lu != inf and lv + w <= lu:\n",
          "        if lu != inf and lv + w < lu:\n"),
         ("        if lv != inf and lu + w <= lv:\n",
          "        if lv != inf and lu + w < lv:\n")),
        tuple("tests/test_monotone_tree.py::test_contract_tree_on_a_view_is_exact_and_reports_"
              "what_moved[%d]" % seed for seed in range(6))
        + ("tests/test_monotone_tree.py::test_cut_off_region_in_a_ball_scope_costs_the_same_"
           "under_any_cap",
           "tests/test_apsp.py::test_apsp_state_machine::runTest"),
        "the pending rule marks an endpoint only when the changed edge was strictly "
        "shorter than its level needs, so a tight edge's loss repairs nothing",
    ),
    Mutant(
        "contract-marks-one-endpoint",
        "src/decrsp/monotone_tree.py",
        (("        if lv != inf and lu + w <= lv:\n"
          "            return (v,)\n", ""),),
        tuple("tests/test_monotone_tree.py::test_contract_tree_on_a_view_is_exact_and_reports_"
              "what_moved[%d]" % seed for seed in range(6)),
        "the pending rule marks only the first endpoint of a changed edge, so the "
        "second keeps a level that the edge alone supported",
    ),
    Mutant(
        "tree-seeds-from-affected-neighbour",
        "src/decrsp/monotone_tree.py",
        (("                    if v not in affected and lv + w < least:\n",
          "                    if lv + w < least:\n"),),
        ("tests/test_monotone_tree.py::test_delete_cuts_component",
         "tests/test_balls.py::test_properties_hold_after_every_update[3-declared0]",
         "tests/test_balls.py::test_properties_hold_after_every_update[11-declared1]"),
        "phase 2 seeds an affected node from the old level of an affected neighbour "
        "below it, so a node cut off keeps a finite level",
    ),
    # -- the band mode and the shortcut keys --------------------------------------
    Mutant(
        "mode-layered-at-q2",
        "src/decrsp/layered.py",
        (("        self.mode = \"layered\" if q == 3 else \"exact\"\n",
          "        self.mode = \"layered\" if q in (2, 3) else \"exact\"\n"),),
        ("tests/test_layered.py::test_every_layer_count_but_three_builds_exact_bands_only[2]",),
        "q = 2 selects a shortcut layer instead of exact trees",
    ),
    Mutant(
        "leave-keeps-tree-key",
        "src/decrsp/hopset.py",
        (("        elif graph.has_edge(key, u):\n",
          "        elif (kind, key[0]) != (LEAVE, \"F\") and graph.has_edge(key, u):\n"),),
        ("tests/test_hopset.py::test_rejoin_uses_fresh_generation_key",
         "tests/test_hopset.py::test_full_deletion_battery_forty_nodes",
         "tests/test_frozen_outputs.py::test_emissions_and_stretch_are_frozen[sssp-p4q3]"),
        "a LEAVE keeps the pair's shortcut key in the tree, so it still routes and a "
        "rejoin reuses a live key",
    ),
    Mutant(
        "batch-support-reads-raised-weight",
        "src/decrsp/hopset.py",
        (("            pending.update(sg.tree.supported_ends(u, v, old))\n",
          "            pending.update(sg.tree.supported_ends(u, v, old + 1))\n"),),
        ("tests/test_hopset.py::test_estimate_increase_below_grain_is_absorbed",),
        "a shortcut batch tests each changed edge for support one above its old "
        "rounded weight, so the end an edge supported tightly is never repaired",
    ),
    Mutant(
        "journal-skips-est-reweights",
        "src/decrsp/hopset.py",
        (("        elif graph.has_edge(key, u):\n",
          "        elif (kind, key[0]) != (EST, \"F\") and graph.has_edge(key, u):\n"),),
        ("tests/test_hopset.py::test_full_deletion_battery_forty_nodes",),
        "an EST event never raises or drops its shortcut's tree key, so the tree "
        "keeps a weight below the ball's estimate",
    ),
    Mutant(
        "tree-misses-initial-shortcuts",
        "src/decrsp/hopset.py",
        (("                if member != owner and estimate <= cap:\n",
          "                if owner < member and estimate <= cap:\n"),),
        ("tests/test_hopset.py::test_full_deletion_battery_forty_nodes",
         "tests/test_layered.py::test_layered_state_machine::runTest",
         "tests/test_acceptance.py::test_criterion_2_monotone_observation_suite_under_ball_joins"),
        "the build leaves every live shortcut with owner > member out of the tree, "
        "so the tree holds fewer edges than G and F",
    ),
    Mutant(
        "heaviest-weight-times-grain",
        "src/decrsp/layered.py",
        (("        self.heaviest = params.weight_cap / params.phi\n",
          "        self.heaviest = params.weight_cap * params.phi\n"),),
        ("tests/test_layered.py::test_layered_stack_rejects_eps_whose_shortcut_weights_alone_pass_the_float_range",),
        "the float-range guard scales the weight cap by the grain instead of "
        "dividing by it, so a tiny eps passes it",
    ),
    Mutant(
        "band-count-without-factor-three",
        "src/decrsp/layered.py",
        (("    return bands, min(bands, (3 * n * eps.denominator // eps.numerator).bit_length())\n",
          "    return bands, min(bands, (n * eps.denominator // eps.numerator).bit_length())\n"),),
        ("tests/test_layered.py::test_band_layout_counts_the_fine_bands",
         "tests/test_apsp.py::test_a_contract_is_a_bare_tree_exactly_when_every_band_is_fine[64-kinds1]"),
        "the fine-band count reads phi_i as eps * 2^i / n, so one or two fine bands "
        "count as coarse",
    ),
    # -- ball builds: the seeded inner trees and the bucket table ----------------
    Mutant(
        "seeded-tree-from-a-shorter-search",
        "src/decrsp/balls.py",
        (("            inner = self.factory(snapshot, u, self.depth, dist)\n",
          "            inner = self.factory(snapshot, u, self.depth,\n"
          "                                 dijkstra_bounded(self.view, u, math.floor(new_radius) - 1))\n"),),
        ("tests/test_balls.py::test_properties_hold_after_every_update[3-declared0]",
         "tests/test_balls.py::test_properties_hold_after_every_update[11-declared1]",
         "tests/test_apsp.py::test_apsp_state_machine::runTest"),
        "a ball's inner tree is seeded from a search bounded one below the scope "
        "radius, so the scope's outermost nodes start at inf",
    ),
    Mutant(
        "bucket-radius-from-the-next-power",
        "src/decrsp/balls.py",
        (("            radius = self._radii[j] = min(Fraction(*powers[j]) / self.alpha, self.depth)\n",
          "            radius = self._radii[j] = min(Fraction(*powers[j + 1]) / self.alpha, self.depth)\n"),),
        ("tests/test_balls.py::test_current_radius_matches_the_pure_formula_at_bucket_boundaries[eps0]",
         "tests/test_balls.py::test_current_radius_matches_the_pure_formula_at_bucket_boundaries[eps1]"),
        "a bucket's radius is read from the power of the bucket above it",
    ),
    Mutant(
        "fold-keeps-member-past-threshold",
        "src/decrsp/balls.py",
        (("            del table[v]\n            events.append(BallEvent(LEAVE, u, v))\n",
          "            events.append(BallEvent(LEAVE, u, v))\n"),),
        ("tests/test_balls.py::test_disconnection_inside_scope_emits_leaves",
         "tests/test_balls.py::test_properties_hold_after_every_update[3-declared0]",
         "tests/test_balls.py::test_properties_hold_after_every_update[11-declared1]"),
        "a member whose folded estimate passes the threshold is journaled as leaving "
        "but stays in its ball's table",
    ),
    Mutant(
        "rebuild-lowers-surviving-estimate",
        "src/decrsp/balls.py",
        (("            val = raw if last is None else max(raw, last)\n",
          "            val = raw\n"),),
        ("tests/test_balls.py::test_rebuild_clamps_estimates_against_history",),
        "a rebuild takes a surviving member's fresh raw estimate, which may lie "
        "below its journaled one",
    ),
    Mutant(
        "dijkstra-keeps-first-distance",
        "src/decrsp/graph.py",
        (("            if nd <= bound and nd < tentative.get(v, inf):\n",
          "            if nd <= bound and v not in tentative:\n"),),
        ("tests/test_graph_core.py::test_dijkstra_bounded_matches_oracle",),
        "bounded Dijkstra enqueues a node only at the first distance it finds, "
        "not when a later one improves on it",
    ),
    # -- the all-pairs tail table -------------------------------------------------
    Mutant(
        "refresh-at-any-priority",
        "src/decrsp/apsp.py",
        (("            if x not in below_top:\n",
          "            if False:\n"),
         ("                if y in below_top:  # x is y's top-level witness\n",
          "                if True:\n")),
        ("tests/test_apsp.py::test_a_chain_tail_with_a_top_below_the_top_level_is_dropped_at_k3",
         "tests/test_apsp.py::test_shared_tails_equal_a_fresh_recomputation[3-3]"),
        "chain tails are recomputed as leg plus entry at every priority, not only "
        "one class below the top",
    ),
    Mutant(
        "raise-assigns-tail",
        "src/decrsp/apsp.py",
        (("            tail = self._tail(x, v)\n"
          "            if tail > served[x][v]:\n"
          "                served[x][v] = tail\n",
          "            served[x][v] = self._tail(x, v)\n"),),
        ("tests/test_apsp.py::test_answers_are_the_largest_tail_since_the_first_ask[2-8]",
         "tests/test_apsp.py::test_answers_are_the_largest_tail_since_the_first_ask[3-8]",
         "tests/test_apsp.py::test_sparse_pair_answers_on_the_benchmark_shape_are_unchanged",
         "tests/test_apsp.py::test_pair_answers_never_decrease_through_full_drain[1]"),
        "an update sets an answered pair's answer to its new tail, which can lie "
        "below the answer, instead of raising the answer to it",
    ),
    Mutant(
        "raise-skips-dropped-tail",
        "src/decrsp/apsp.py",
        (("            tail = self._tail(x, v)\n",
          "            tail = keys.get((x, v), tails[x].get(v, 0))\n"),),
        ("tests/test_apsp.py::test_answers_are_the_largest_tail_since_the_first_ask[2-8]",
         "tests/test_apsp.py::test_no_repeat_query_computes_on_the_benchmark_shape[7001]",
         "tests/test_apsp.py::test_a_chain_tail_with_a_top_below_the_top_level_is_dropped_at_k3"),
        "an update raises an answered pair only to a tail that is journaled or "
        "cached, so a pair whose tail it dropped keeps its old answer",
    ),
    Mutant(
        "raise-inside-propagation",
        "src/decrsp/apsp.py",
        (("            if v in served[x]:\n"
          "                answered.append((x, v))\n",
          "            if v in served[x]:\n"
          "                served[x][v] = max(served[x][v], self._tail(x, v))\n"),
         ("        for x, v in answered:\n"
          "            tail = self._tail(x, v)\n"
          "            if tail > served[x][v]:\n"
          "                served[x][v] = tail\n", "")),
        ("tests/test_apsp.py::test_answers_are_the_largest_tail_since_the_first_ask[3-128]",
         "tests/test_apsp.py::test_shared_tails_equal_a_fresh_recomputation[3-3]",
         "tests/test_apsp.py::test_apsp_spread_machine::runTest"),
        "an update raises each answered pair as its changed tail is popped, while "
        "the change still spreads, so a tail it computes can read stale ones",
    ),
    Mutant(
        "top-leg-change-keeps-row",
        "src/decrsp/apsp.py",
        (("            if new != top:\n",
          "            if (new and new[1]) != (top and top[1]):\n"),),
        ("tests/test_apsp.py::test_a_moved_top_recomputes_its_row_in_place_at_k2",),
        "a witness top that keeps its owner while its leg changes does not move its "
        "node's row, so the row's tails keep the stale leg",
    ),
    # -- the witness heaps and their reader sets ------------------------------------
    Mutant(
        "heap-push-at-any-class",
        "src/decrsp/apsp.py",
        (("                if j > priority_of(member):\n"
          "                    heapq.heappush(self._heaps[member][j], (est, owner))\n",
          "                heapq.heappush(self._heaps[member][j], (est, owner))\n"),
         ("            if j > priority_of(member):\n"
          "                heap = self._heaps[member][j]\n",
          "            if True:\n"
          "                heap = self._heaps[member][j]\n")),
        ("tests/test_apsp.py::test_witness_heaps_hold_only_classes_above_their_node[2]",
         "tests/test_apsp.py::test_witness_heaps_hold_only_classes_above_their_node[3]",
         "tests/test_apsp.py::test_witness_heaps_match_membership_minima_through_schedule"),
        "a ball event is pushed into its member's heap of the owner's class also at or "
        "below the member's own priority, where no tail reads it",
    ),
    Mutant(
        "moved-top-keeps-old-reader",
        "src/decrsp/apsp.py",
        (("                if top is not None:\n"
          "                    readers[top[1]].discard(v)\n", ""),),
        ("tests/test_apsp.py::test_witness_heaps_hold_only_classes_above_their_node[2]",
         "tests/test_apsp.py::test_witness_heaps_hold_only_classes_above_their_node[3]",
         "tests/test_apsp.py::test_ingest_mechanics_on_synthetic_journal"),
        "a node whose witness top moved stays in its old top's reader set",
    ),
    Mutant(
        "new-top-not-a-reader",
        "src/decrsp/apsp.py",
        (("                if new is not None:\n"
          "                    readers[new[1]].add(v)\n", ""),),
        ("tests/test_apsp.py::test_witness_heaps_hold_only_classes_above_their_node[2]",
         "tests/test_apsp.py::test_witness_heaps_hold_only_classes_above_their_node[3]",
         "tests/test_apsp.py::test_ingest_mechanics_on_synthetic_journal",
         "tests/test_apsp.py::test_a_dropped_row_drops_the_tails_that_read_it"),
        "a node whose witness top moved is not added to its new top's reader set, so "
        "a change to that top's tails leaves the node's tails stale",
    ),
)


def mutated_text(mutant, root=ROOT):
    """The mutant's file under ``root`` with every edit applied; raises
    ``ValueError`` unless each old snippet occurs exactly once."""
    text = (root / mutant.path).read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise ValueError("%s: snippet occurs %d times in %s:\n%s"
                             % (mutant.name, text.count(old), mutant.path, old))
        text = text.replace(old, new)
    return text


def surviving_tests(mutant):
    """The tests of ``mutant`` that pass on a mutated copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="decrsp-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests", "benchmarks"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / mutant.path).write_text(mutated_text(mutant, copy))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    return [test for test in mutant.tests if test not in failed]


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survivors = 0
    for mutant in chosen:
        alive = surviving_tests(mutant)
        survivors += bool(alive)
        if alive:
            print("%-36s SURVIVED (%s): %s" % (mutant.name, mutant.why, " ".join(alive)))
        else:
            print("%-36s killed" % mutant.name)
    print("%d of %d mutants survived" % (survivors, len(chosen)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
