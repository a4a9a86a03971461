"""Mutation checks of the certificates and parsers, run as a script.

    python tests/mutants.py [--only NAME]

Each mutant replaces one exact text in one file with another and names
the tier-1 tests that must fail on the result.  For each mutant the
script copies the checkout, without .git and caches, into a temporary
directory, applies the edit there and runs the named tests.  It prints
one record per mutant, its name and one of

    killed    every named test failed
    survived  some named test passed: that check misses the fault
    stale     the old text is not in the file, so the mutant must be
              rewritten to fit the code

The named tests first run once on an unedited copy and must pass, so a
kill is the edit's doing.  The exit code is 0 when every mutant is
killed and 1 otherwise.  pytest does not collect this file.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis"
)

# name -> (file, old text, new text, node ids of tests that must fail)
MUTANTS = {
    # a format-1 map read without its stated sign
    "format1-sign-ignored": (
        "src/fansheaf/complexes.py",
        "        if signs.get((s, t)) == -1:\n",
        "        if False:\n",
        [
            "tests/test_complexes.py::"
            "test_format1_maps_are_entries_times_stated_signs[quadrant]",
            "tests/test_cli.py::"
            "test_format1_complex_is_read_by_its_stated_signs",
            "tests/test_golden.py::"
            "test_verify_p4_matches_benchmark_records[--complex]",
        ],
    ),
    # a format-1 map read with its stated sign inverted
    "format1-sign-inverted": (
        "src/fansheaf/complexes.py",
        "        if signs.get((s, t)) == -1:\n",
        "        if signs.get((s, t)) == 1:\n",
        [
            "tests/test_complexes.py::"
            "test_format1_maps_are_entries_times_stated_signs[quadrant]",
            "tests/test_complexes.py::"
            "test_format1_maps_are_entries_times_stated_signs[p4]",
        ],
    ),
    # a sign line accepted in a format-2 file
    "format2-accepts-sign": (
        "src/fansheaf/complexes.py",
        'elif keyword == "sign" and header == FORMAT_1:',
        'elif keyword == "sign":',
        [
            "tests/test_cli.py::test_verify_malformed_complex_exits_two"
            "[entry 3 2 0 0: -1-sign 3 2: -1\\nentry 3 2 0 0: -1]",
        ],
    ),
    # a stated sign other than +1 or -1 accepted
    "sign-range-dropped": (
        "src/fansheaf/complexes.py",
        "if sign not in (1, -1):",
        "if False:",
        [
            "tests/test_cli.py::test_verify_malformed_complex_exits_two"
            "[sign 3 2: -1-sign 3 2: 2]",
        ],
    ),
    # the writer negates every entry
    "writer-negates": (
        "src/fansheaf/complexes.py",
        "{format_poly(entries[(i, j)])}",
        "{format_poly({u: -c for u, c in entries[(i, j)].items()})}",
        [
            "tests/test_golden.py::"
            "test_minimal_build_text_matches_golden[quadrant]",
            "tests/test_complexes.py::"
            "test_format1_maps_are_entries_times_stated_signs[cubefan]",
        ],
    ),
    # a header of another format version reported as missing
    "unsupported-header-as-missing": (
        "src/fansheaf/complexes.py",
        'if line_keyword(header) == "complex-format":',
        "if False:",
        [
            "tests/test_complexes.py::"
            "test_serialization_rejects_missing_header",
        ],
    ),
    # kernel_cover keys the sections without their walls, so two
    # sections that differ only in the walls share one memo entry; no
    # certificate reads kernel_cover, so the key tests alone see it
    "sections-key-without-walls": (
        "src/fansheaf/complexes.py",
        "key = (M.window, forms, assemble_key(M, tiles, walls))",
        "key = (M.window, forms, assemble_key(M, tiles, ()))",
        [
            "tests/test_complexes.py::test_assemble_key_fixes_the_rows",
            "tests/test_kernel_cover.py::"
            "test_key_separates_each_part_of_the_local_data",
        ],
    ),
    # the top module over the first maximal cone's ring, not the full
    # ring "A": the same generator degrees, another cone in the record
    "top-module-over-first-cone": (
        "src/fansheaf/complexes.py",
        'kernel_cover(M, cone_ring(M.fan, "A"), top_ids, walls, {})',
        "kernel_cover(M, cone_ring(M.fan, top_ids[0]), top_ids, walls, {})",
        [
            "tests/test_cli.py::"
            "test_window_exhausted_in_top_module_names_full_ring",
        ],
    ),
    # a direct image glued across its facets' tiles, not its interior
    # walls
    "pushforward-glues-across-facet-tiles": (
        "src/fansheaf/pushforward.py",
        "kernel_cover(M, cone_ring(tgt_fan, s), tiles, walls, memo)",
        "kernel_cover(M, cone_ring(tgt_fan, s), tiles, [i for f in"
        " sigma.facet_ids for i in fan_map.tiles[f] if M.rank_at(i)], memo)",
        [
            "tests/test_golden.py::test_pushforward_matches_golden[p2-p2]",
            "tests/test_cli.py::test_pushforward_command",
        ],
    ),
    # the direct image's sections taken over the tiles with no walls to
    # glue across: the sum of the tiles' modules
    "pushforward-covers-without-walls": (
        "src/fansheaf/pushforward.py",
        "walls = tuple(w for w in fan_map.walls[s] if M.rank_at(w))",
        "walls = ()",
        [
            "tests/test_golden.py::"
            "test_pushforward_matches_golden[blowquad-quadrant]",
            "tests/test_pushforward.py::test_blowup_top_cohomology",
        ],
    ),
    # kernel_cover's memo key without its window, so covers searched on
    # another window are reused
    "kernel-cover-key-without-window": (
        "src/fansheaf/complexes.py",
        "key = (M.window, forms, assemble_key(M, tiles, walls))",
        "key = (forms, assemble_key(M, tiles, walls))",
        ["tests/test_kernel_cover.py::test_key_separates_windows"],
    ),
    # kernel_cover's memo key without the tiles' restriction forms from
    # its ring
    "kernel-cover-key-without-parts": (
        "src/fansheaf/complexes.py",
        "key = (M.window, forms, assemble_key(M, tiles, walls))",
        "key = (M.window, assemble_key(M, tiles, walls))",
        [
            "tests/test_kernel_cover.py::"
            "test_key_separates_each_part_of_the_local_data",
        ],
    ),
    # kernel_cover's memo key without the assemble_key of its rows
    "kernel-cover-key-without-local": (
        "src/fansheaf/complexes.py",
        "key = (M.window, forms, assemble_key(M, tiles, walls))",
        "key = (M.window, forms)",
        [
            "tests/test_kernel_cover.py::"
            "test_key_separates_each_part_of_the_local_data",
        ],
    ),
    # a memo hit rebuilt with no kernel dimensions, so a reused cover
    # reads as unfree wherever freeness is certified
    "kernel-cover-hit-without-dimensions": (
        "src/fansheaf/complexes.py",
        "return CoverMap(ambient, M.window, *memo[key])",
        "return CoverMap(ambient, M.window, {}, memo[key][1])",
        [
            "tests/test_kernel_cover.py::"
            "test_memo_holds_dimensions_and_generators_only",
            "tests/test_kernel_cover.py::"
            "test_reused_covers_equal_fresh_searches[cubestar-cubefan]",
            "tests/test_golden.py::test_pushforward_matches_golden[p2-p2]",
        ],
    ),
    # the generator search without its closure check, so a subspace
    # that is no submodule gets generators
    "generators-closure-dropped": (
        "src/fansheaf/modules.py",
        "        if len(span.rows) != len(zd):\n",
        "        if False:\n",
        [
            "tests/test_modules.py::"
            "test_minimal_generators_closure_certificate",
            "tests/test_modules.py::"
            "test_minimal_generators_closure_with_nonempty_degree",
            "tests/test_kernel_cover.py::test_failures_are_not_memoised",
        ],
    ),
    # the guard zone shrunk to nothing: a generator in the top two
    # window degrees no longer exhausts the window
    "generators-guard-zone-at-window-top": (
        "src/fansheaf/modules.py",
        "        if new and d > hi - 2:\n",
        "        if new and d > hi:\n",
        [
            "tests/test_modules.py::test_minimal_generators_guard_zone",
            "tests/test_kernel_cover.py::test_key_separates_windows",
            "tests/test_cli.py::test_window_exhaustion_exits_three",
        ],
    ),
    # the Hilbert comparison reads the free module on both sides, so
    # every cover passes as free
    "freeness-compares-module-with-itself": (
        "src/fansheaf/modules.py",
        "cover.module.dim_at(d) != cover.dims.get(d, 0)",
        "cover.module.dim_at(d) != cover.module.dim_at(d)",
        [
            "tests/test_modules.py::"
            "test_freeness_certificate_names_the_first_unequal_degree",
        ],
    ),
    # a restriction coefficient read off by position as a Fraction, not
    # an int
    "restriction-read-off-as-fraction": (
        "src/fansheaf/modules.py",
        "images[position[b]].append((j, 1))",
        "images[position[b]].append((j, _linalg.Fraction(1)))",
        [
            "tests/test_fans.py::test_span_coords_matches_per_vector_solve",
            "tests/test_polys.py::test_polynomials_are_term_dicts",
        ],
    ),
    # a target basis vector outside the source span read as zero
    "restriction-outside-span-as-zero": (
        "src/fansheaf/modules.py",
        '                raise InputError("vector outside the span of the '
        'basis")\n',
        "                col = {}\n",
        ["tests/test_fans.py::test_span_coords_matches_per_vector_solve"],
    ),
    # the coordinates that restriction solves for, negated
    "restriction-solve-sign-flip": (
        "src/fansheaf/modules.py",
        "images[k].append((j, x))",
        "images[k].append((j, -x))",
        [
            "tests/test_fans.py::test_span_coords_matches_per_vector_solve",
            "tests/test_modules.py::test_restriction_along_diagonal",
            "tests/test_restriction.py::"
            "test_tile_restriction_matches_evaluation_oracle"
            "[cubestar-cubefan]",
        ],
    ),
    # the local-exactness memo keyed on the cone-to-facets block alone
    "exactness-key-without-boundary": (
        "src/fansheaf/complexes.py",
        "key = (assemble_key(M, facets, codim2), assemble_key(M, [i], facets))",
        "key = assemble_key(M, [i], facets)",
        [
            "tests/test_complexes.py::"
            "test_exactness_memo_equals_a_run_per_cone",
        ],
    ),
    # the local-exactness memo keyed on the facets-to-codimension-2
    # block alone
    "exactness-key-without-cone-to-facets": (
        "src/fansheaf/complexes.py",
        "key = (assemble_key(M, facets, codim2), assemble_key(M, [i], facets))",
        "key = assemble_key(M, facets, codim2)",
        [
            "tests/test_complexes.py::"
            "test_exactness_runs_once_per_local_data_on_p4",
        ],
    ),
    # a map's content without its source's shape, so maps from modules
    # of other generator degrees share one table of evaluations
    "map-content-without-source-shape": (
        "src/fansheaf/modules.py",
        "(s.ring.nvars, s.degrees), (t.ring.nvars, t.degrees),",
        "(t.ring.nvars, t.degrees),",
        [
            "tests/test_matrix_form.py::"
            "test_content_that_differs_in_one_part_gets_its_own_table"
            "[source degrees]",
        ],
    ),
    # a map's content without its target's shape
    "map-content-without-target-shape": (
        "src/fansheaf/modules.py",
        "(s.ring.nvars, s.degrees), (t.ring.nvars, t.degrees),",
        "(s.ring.nvars, s.degrees),",
        [
            "tests/test_matrix_form.py::"
            "test_content_that_differs_in_one_part_gets_its_own_table"
            "[target degrees]",
            "tests/test_matrix_form.py::"
            "test_content_that_differs_in_one_part_gets_its_own_table"
            "[target nvars]",
        ],
    ),
    # a map's content without the restriction between its rings
    "map-content-without-forms": (
        "src/fansheaf/modules.py",
        "restriction(s.ring, t.ring), tuple(terms),",
        "tuple(terms),",
        [
            "tests/test_matrix_form.py::"
            "test_content_that_differs_in_one_part_gets_its_own_table"
            "[forms]",
        ],
    ),
    # a map's content without its entries
    "map-content-without-entries": (
        "src/fansheaf/modules.py",
        "restriction(s.ring, t.ring), tuple(terms),",
        "restriction(s.ring, t.ring),",
        [
            "tests/test_matrix_form.py::"
            "test_content_that_differs_in_one_part_gets_its_own_table"
            "[entries]",
            "tests/test_modules.py::test_kernel_degreewise_simple",
        ],
    ),
    # assemble_key without the source modules' shapes
    "assemble-key-without-source-shapes": (
        "src/fansheaf/complexes.py",
        "        for ids in (src_ids, tgt_ids)\n",
        "        for ids in (tgt_ids,)\n",
        [
            "tests/test_kernel_cover.py::"
            "test_key_separates_each_part_of_the_local_data",
        ],
    ),
    # assemble_key without the target modules' shapes
    "assemble-key-without-target-shapes": (
        "src/fansheaf/complexes.py",
        "        for ids in (src_ids, tgt_ids)\n",
        "        for ids in (src_ids,)\n",
        ["tests/test_complexes.py::test_assemble_key_fixes_the_rows"],
    ),
    # assemble_key without each block's source and target positions
    "assemble-key-without-block-positions": (
        "src/fansheaf/complexes.py",
        "tuple((si, ti, pm.content()) for si, ti, pm in blocks)",
        "tuple(pm.content() for si, ti, pm in blocks)",
        [
            "tests/test_complexes.py::test_assemble_key_fixes_the_rows",
            "tests/test_kernel_cover.py::"
            "test_key_separates_each_part_of_the_local_data",
        ],
    ),
    # assemble_key without each block's map content
    "assemble-key-without-map-content": (
        "src/fansheaf/complexes.py",
        "tuple((si, ti, pm.content()) for si, ti, pm in blocks)",
        "tuple((si, ti) for si, ti, pm in blocks)",
        [
            "tests/test_complexes.py::test_exactness_memo_equals_a_run_per_cone",
            "tests/test_kernel_cover.py::"
            "test_key_separates_each_part_of_the_local_data",
        ],
    ),
    # minimality's elimination seeded with the bare columns too, so no
    # bare column ever enlarges the span
    "minimality-seeds-every-column": (
        "src/fansheaf/minimal.py",
        "span = _linalg.Echelon([c for c, b in zip(cols, bare) if not b])",
        "span = _linalg.Echelon(cols)",
        [
            "tests/test_minimal.py::"
            "test_verify_minimality_builds_no_kernel[p3-0-0]",
            "tests/test_minimal.py::"
            "test_verify_minimality_problems_on_direct_images[p2-p2]",
            "tests/test_minimal.py::test_verify_minimality_problems_on_"
            "direct_images[starsq-conesquare]",
        ],
    ),
    # minimality counting every bare column, dependent or not, so a
    # module always needs the generators it has
    "minimality-counts-every-bare-column": (
        "src/fansheaf/minimal.py",
        "sum(span.insert(c) for c, b in zip(cols, bare) if b)",
        "sum(1 for c, b in zip(cols, bare) if b)",
        [
            "tests/test_minimal.py::"
            "test_verify_minimality_reports_exactness_before_degrees",
            "tests/test_minimal.py::test_verify_minimality_problems_on_"
            "direct_images[starsq-conesquare]",
            "tests/test_minimal.py::test_verify_minimality_problems_on_"
            "direct_images[cubestar-cubefan]",
        ],
    ),
    # every nonzero row of C·B charged to a cone's first codimension-2
    # face, so a nonzero composite is reported against the wrong face
    "composite-charged-to-first-face": (
        "src/fansheaf/complexes.py",
        "bad.add(bisect_right(offs, r) - 1)",
        "bad.add(0)",
        [
            "tests/test_complexes.py::"
            "test_corrupted_entries_flagged_as_symbolic_composition_finds"
            "[cubefan]",
            "tests/test_complexes.py::"
            "test_corrupted_entries_flagged_as_symbolic_composition_finds"
            "[conecube]",
        ],
    ),
    # local exactness without rank C: the boundary kernel taken as all
    # of the facets' pieces
    "exactness-drops-rank-of-c": (
        "src/fansheaf/complexes.py",
        "zdim = fdim - _linalg.rank(C(d))",
        "zdim = fdim",
        [
            "tests/test_complexes.py::test_local_exactness_quadrant",
            "tests/test_complexes.py::"
            "test_exactness_runs_once_per_local_data_on_p4",
        ],
    ),
    # every ridge of a single tile taken as the target's boundary, so a
    # tile that covers part of its target cone passes as a tiling
    "covers-single-tile-ridge-as-boundary": (
        "src/fansheaf/fans.py",
        "cnt == 2 or cnt == 1 and f not in fm.walls[t]",
        "cnt in (1, 2)",
        [
            "tests/test_fans.py::test_subdivision_map_not_proper",
            "tests/test_fans.py::test_subdivision_map_matches_brute_scan",
        ],
    ),
    # the listed cones' faces collected first listed first, so of two
    # invalid cones the first is reported, not the last
    "from-cones-first-listed-first": (
        "src/fansheaf/fans.py",
        "for cur in reversed(dict.fromkeys(listed)):",
        "for cur in dict.fromkeys(listed):",
        [
            "tests/test_fans.py::test_two_bad_cones_report_the_last_distinct"
            "_one[line-then-quadrant]",
            "tests/test_fans.py::test_two_bad_cones_report_the_last_distinct"
            "_one[line-repeated]",
        ],
    ),
    # a lift trusted without multiplying it back, so a wrong solve goes
    # into the direct image's differential and a summand's embedding
    "lift-without-multiplying-back": (
        "src/fansheaf/modules.py",
        "if sol is None or _linalg.matvec(rows, sol) != img:",
        "if sol is None:",
        ["tests/test_decompose.py::test_wrong_lifts_are_refused"],
    ),
    # a summand's base vector embedded without checking that it is a
    # cocycle of the complex
    "peel-base-not-checked": (
        "src/fansheaf/decompose.py",
        "if _linalg.matvec(block(d), base[1]) != img:",
        "if False:",
        [
            "tests/test_decompose.py::"
            "test_peel_refuses_a_base_that_is_not_a_cocycle",
        ],
    ),
    # a target cone's walls taken two dimensions below it, not one: its
    # codimension-2 source cones stand for its interior walls
    "fanmap-walls-two-dimensions-down": (
        "src/fansheaf/fans.py",
        "elif gap == 1:",
        "elif gap == 2:",
        [
            "tests/test_fans.py::test_tiles_and_walls_match_geometry",
            "tests/test_fans.py::test_subdivision_map_not_proper",
            "tests/test_golden.py::"
            "test_pushforward_matches_golden[blowquad-quadrant]",
        ],
    ),
}


def pytest_run(tree, tests):
    """(exit code, report) of pytest on the named tests of the copy at
    tree."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
         "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return done.returncode, done.stdout


def outcome(name):
    """killed, survived or stale for one mutant.  Every named test must
    fail for a kill."""
    path, old, new, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "checkout"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        text = (tree / path).read_text()
        if text.count(old) != 1:
            return "stale"
        (tree / path).write_text(text.replace(old, new))
        code, report = pytest_run(tree, tests)
    if code not in (0, 1):
        return f"error (pytest exit {code})"
    failed = report.splitlines()
    missed = [
        t for t in tests
        if not any(line.startswith(f"FAILED {t}") for line in failed)
    ]
    return "survived" if missed else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", choices=sorted(MUTANTS))
    args = parser.parse_args(argv)
    names = [args.only] if args.only else list(MUTANTS)
    tests = sorted({t for n in names for t in MUTANTS[n][3]})
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "checkout"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if pytest_run(tree, tests)[0] != 0:
            print("baseline\tthe named tests fail without a mutant")
            return 1
    killed = 0
    for name in names:
        start = time.perf_counter()
        result = outcome(name)
        killed += result == "killed"
        print(f"{name}\t{result}\t{time.perf_counter() - start:.1f}s",
              flush=True)
    return 0 if killed == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
