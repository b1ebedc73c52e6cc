"""Generate a benchmark corpus and measure planted-pattern recovery.

Shows the long-span effect: compression-driven cover selection prefers
the templates' internal repetitions, so whole-placement recovery needs a
compactness-oriented quality ordering instead of the default.  On the 12
pieces below the default ordering recovers 0/48 planted occurrences at
Jaccard >= 0.8 (mean best Jaccard 0.37), and ``("comp", "size")``
recovers 48/48 (mean best Jaccard 0.99).

It then climbs a ladder of 2, 3, 4 and 6 occurrences per template under
``("comp", "size")`` on seeds 0-7 and counts the pieces with every planted
occurrence at Jaccard >= 0.8: 8/8, 7/8, 8/8 and 8/8 (seed 5 misses at 3).
On seeds 0-19 the ladder reads 20/20, 18/20, 19/20 and 19/20;
``tests/test_acceptance.py::test_cosiatec_recovery_ladder`` keeps the
first three as its bars.

Run:  python demos/03_synthetic_benchmark.py
"""

from fractions import Fraction

from motifkit.discovery import cosiatec, tecs_to_records
from motifkit.evaluation import occurrence_recovery
from motifkit.synthesis import SynthConfig, synthesize

F = Fraction
THRESHOLD = F(4, 5)

corpus = [synthesize(SynthConfig(seed=s)) for s in range(12)]
fractions = [float(sp.random_duration / sp.total_duration) for sp in corpus]
print(f"corpus: {len(corpus)} pieces, random-material fraction "
      f"{min(fractions):.2f}..{max(fractions):.2f}")

for order in (("cr", "comp", "cov", "size"), ("comp", "size")):
    recovered = spurious = 0
    jaccards = []
    for sp in corpus:
        tecs = cosiatec(sp.piece, tie_break=order)
        records = tecs_to_records(tecs, "cosiatec")
        planted = [occ for rec in sp.ground_truth for occ in rec.occurrences]
        report = occurrence_recovery(records, planted, THRESHOLD)
        recovered += sum(r.recovered for r in report.planted)
        spurious += report.spurious_patterns
        jaccards.extend(float(r.best_jaccard) for r in report.planted)
    total = 4 * len(corpus)
    print(
        f"ordering {order}: {recovered}/{total} occurrences recovered "
        f"at Jaccard>={float(THRESHOLD)}, mean best-Jaccard "
        f"{sum(jaccards)/len(jaccards):.2f}, spurious patterns {spurious}"
    )

ladder_seeds = range(8)
for occurrences in (2, 3, 4, 6):
    missed = []
    for seed in ladder_seeds:
        sp = synthesize(SynthConfig(seed=seed, occurrences_per_template=occurrences))
        records = tecs_to_records(cosiatec(sp.piece, tie_break=("comp", "size")), "cosiatec")
        planted = [occ for rec in sp.ground_truth for occ in rec.occurrences]
        if not occurrence_recovery(records, planted, THRESHOLD).all_recovered:
            missed.append(seed)
    print(
        f"{occurrences} occurrences per template: "
        f"{len(ladder_seeds) - len(missed)}/{len(ladder_seeds)} pieces fully recovered"
        + (f", missed seeds {missed}" if missed else "")
    )
