"""Benchmark: regenerate the introduction's first table (every scheme
relative to Sprout, averaged over all links).

Paper reference points (averages over the paper's eight links): Sprout
carries ~2.2x Skype's bit rate with ~7.9x less self-inflicted delay, beats
Hangout and Facetime by similar margins, achieves multi-fold delay
reductions against the delay-based TCPs, and trades some throughput against
Cubic for a ~79x delay reduction.
"""

from __future__ import annotations

from repro.experiments.tables import intro_table, render_intro_table


def test_bench_table_intro(benchmark, measurement_matrix):
    comparisons = benchmark.pedantic(
        lambda: intro_table(results=measurement_matrix.results), rounds=1, iterations=1
    )
    print()
    print(render_intro_table(comparisons))

    by_scheme = {c.scheme: c for c in comparisons}
    assert by_scheme["Sprout"].speedup == 1.0

    # Qualitative shape of the paper's table: Sprout's delay advantage over
    # the videoconference applications is many-fold, while its throughput is
    # at least competitive.  (The paper reports 1.9-4.4x throughput gains;
    # our synthetic slow 3G links make the cautious forecast give some of
    # that back.)
    for app in ("Skype", "Google Hangout", "Facetime"):
        assert by_scheme[app].speedup > 0.8
        assert by_scheme[app].delay_reduction > 3.0

    # Cubic out-throughputs Sprout (speedup below 1) but pays an enormous
    # delay penalty.
    assert by_scheme["Cubic"].speedup < 1.0
    assert by_scheme["Cubic"].delay_reduction > 5.0

    # The delay-triggered schemes sit in between.
    assert by_scheme["Vegas"].delay_reduction >= 1.0
    assert by_scheme["LEDBAT"].delay_reduction >= 1.0
