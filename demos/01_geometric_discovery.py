"""Walk through the geometric discovery family on a tiny hand-made piece.

Run:  python demos/01_geometric_discovery.py
"""

from fractions import Fraction

from motifkit.core import Point, PointSet
from motifkit.discovery import cosiatec, sia, siar, siatec, siatec_compress, tec_quality

F = Fraction

# a four-bar toy: a two-note motif stated at 0, repeated at 8, with filler
piece = PointSet.build(
    [
        Point(F(0), 60),
        Point(F(1), 64),
        Point(F(3), 71),
        Point(F(5), 55),
        Point(F(8), 60),
        Point(F(9), 64),
        Point(F(11), 69),
    ],
    title="toy",
)

print(f"piece: {len(piece)} notes, span {piece.span()}")

print("\n== maximal translatable patterns (sia) ==")
for mtp in sia(piece):
    coords = [(str(p.onset), p.pitch) for p in mtp.points]
    print(f"  vector (dt={mtp.vector.dt}, dp={mtp.vector.dp}): {coords}")

print("\n== restricted vector table (siar, r=2) ==")
print(f"  {len(siar(piece, 2))} patterns vs {len(sia(piece))} from the full table")

print("\n== translational equivalence classes (siatec) ==")
for tec in siatec(piece):
    q = tec_quality(tec, piece)
    print(
        f"  |pattern|={len(tec.pattern)} translators={len(tec.translators)} "
        f"covered={q.coverage} compression={q.compression_ratio} "
        f"compactness={q.compactness}"
    )

print("\n== greedy covers ==")
for name, tecs in (
    ("cosiatec (removes covered points)", cosiatec(piece)),
    ("siatec-compress:cr (keeps overlaps)", siatec_compress(piece, "cr")),
):
    sizes = [(len(t.pattern), len(t.translators)) for t in tecs]
    print(f"  {name}: {len(tecs)} TECs {sizes}")
