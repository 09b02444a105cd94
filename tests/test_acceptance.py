"""The acceptance gate: one test, and one printed line, per criterion.

Each criterion function returns a CriterionResult; the tests print the
same line the ``corpus`` subcommand would and then assert on it, so a
failure shows the offending instances directly in the pytest output.
Each line must also equal, byte for byte, the line that
``logictop corpus --max-points 4 --seed 0`` prints: a change that keeps
every criterion passing but alters what it checked or counted fails here.
Criterion 6's detail lines at ``--max-points 5``, seeds 0 and 1, are
pinned as well.
"""

from logictop.corpus import (
    criterion_constructible,
    criterion_degenerate_primes,
    criterion_generic_points,
    criterion_godel_witness,
    criterion_heyting_agreement,
    criterion_logic_roundtrip,
    criterion_prime_extension,
    criterion_space_roundtrip,
    criterion_spectral_distributive,
    criterion_spectrality,
    criterion_stability_lemma,
)

EXPECTED_LINES = {
    1: "criterion 1 logic-roundtrip: pass (24 logics, poset counts (1, 2, 5, 16))",
    2: "criterion 2 space-roundtrip: pass (24 spaces)",
    3: "criterion 3 spectrality: pass (25 bounded logics, 25 spectral)",
    4: "criterion 4 generic-points: pass (95 irreducible closed sets)",
    5: "criterion 5 prime-extension: pass (2869 admissible pairs)",
    6: "criterion 6 stability-lemma: pass (112500 samples over 15^2 logic pairs, 9126 logic maps)",
    7: "criterion 7 spectral-distributive: pass (27 spectral spaces)",
    8: "criterion 8 heyting-agreement: pass (30 covering spaces, 2 non-covering skipped)",
    9: "criterion 9 godel-witness: pass (V-frame witness (1, 2, 4, 3); Boolean algebras up to 16 elements clean)",
    10: "criterion 10 constructible-topology: pass (27 spectral spaces refined)",
    11: "criterion 11 degenerate-primes: pass (4 logics, all flag combinations)",
}


def _settle(result):
    line = f"criterion {result.number} {result.name}: {'pass' if result.passed else 'FAIL'} ({result.detail})"
    print(line)
    assert result.passed, line
    assert line == EXPECTED_LINES[result.number]


def test_criterion_01_every_small_logic_survives_the_roundtrip():
    _settle(criterion_logic_roundtrip(max_points=4))


def test_criterion_02_every_spectrum_survives_the_roundtrip():
    _settle(criterion_space_roundtrip(max_points=4))


def test_criterion_03_bounded_logics_have_spectral_spectra():
    _settle(criterion_spectrality(max_points=4))


def test_criterion_04_irreducible_closed_sets_have_generic_points():
    _settle(criterion_generic_points(max_points=4))


def test_criterion_05_prime_extension_agrees_with_enumeration():
    _settle(criterion_prime_extension(max_points=4))


def test_criterion_06_stability_matches_join_preservation():
    _settle(criterion_stability_lemma(max_points=4, seed=0))


WIDE_STABILITY_DETAILS = {
    0: "128000 samples over 16^2 logic pairs, 9647 logic maps",
    1: "128000 samples over 16^2 logic pairs, 9613 logic maps",
}


def test_criterion_06_wide_corpus_details_are_pinned():
    # The benchmark's corpus-wide workload reads these lines; a change to
    # the sampled stream shows here first.
    for seed, detail in WIDE_STABILITY_DETAILS.items():
        result = criterion_stability_lemma(max_points=5, seed=seed)
        assert result.passed and result.detail == detail, (seed, result.detail)


def test_criterion_07_spectral_spaces_are_distributive():
    _settle(criterion_spectral_distributive(max_points=4))


def test_criterion_08_implication_readings_agree_on_covering_bases():
    _settle(criterion_heyting_agreement(max_points=4))


def test_criterion_09_double_negation_witness_is_found_and_absent():
    _settle(criterion_godel_witness())


def test_criterion_10_constructible_refinements_are_boolean():
    _settle(criterion_constructible(max_points=4))


def test_criterion_11_degenerate_prime_flags_hit_all_combinations():
    _settle(criterion_degenerate_primes())
