"""A 24-kernel stand-in for the dependence graphs of Govindarajan et al.

Section 4.1 evaluates HRMS on "24 dependence graphs from [8]" — loops
supplied privately by the SPILP authors and never published in
machine-readable form.  Since they cannot be obtained, we substitute 24
hand-written kernels drawn from the families that suite was built from:
Livermore kernels, Whetstone cycles, classic BLAS-1 loops, SPICE-style
device-model fragments and small recurrences.  They use the paper's
Section 4.1 machine (1 FP add, 1 FP mul, 1 FP divide, 1 load/store) and
latencies (add/sub/store 1, mul/load 2, divide 17).

The suite deliberately covers:

* recurrence-free graphs of 4–16 operations (liv1, liv7, fir4, …),
* first- and second-order recurrences (liv2, liv5, recur2, …) — recur2's
  two backward edges exercise the Figure 8c/8d subgraph classification,
* divide chains (spice1, liv23s) — ``liv23s`` is the suite's SPILP
  stress case, echoing the paper's Livermore-23 anecdote,
* reduction self-dependences (liv3, liv4) — trivial circuits.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.machine.configs import GOVINDARAJAN_LATENCIES, STORE_LATENCY
from repro.workloads.loops import Loop


def _builder(name: str) -> GraphBuilder:
    builder = GraphBuilder(name)
    builder.defaults(**GOVINDARAJAN_LATENCIES)
    return builder


def _store(builder: GraphBuilder, name: str, deps) -> GraphBuilder:
    return builder.store(name, deps=deps, latency=STORE_LATENCY)


def liv1() -> Loop:
    """Livermore 1 (hydro): x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])."""
    b = _builder("liv1")
    b.load("ly").load("lz1").load("lz2")
    b.mul("m1", deps=["lz1"])  # r * z[k+10]
    b.mul("m2", deps=["lz2"])  # t * z[k+11]
    b.add("a1", deps=["m1", "m2"])
    b.mul("m3", deps=["ly", "a1"])
    b.add("a2", deps=["m3"])  # q + ...
    _store(b, "st", ["a2"])
    return Loop(b.build(), iterations=400, invariants=3, source="livermore")


def liv2() -> Loop:
    """Livermore 2 (ICCG step): x[i] = x[i] - v[i]*x[i-1]."""
    b = _builder("liv2")
    b.load("lv").load("lx")
    b.mul("m", deps=["lv", ("a", 1)])
    b.add("a", deps=["lx", "m"])
    _store(b, "st", ["a"])
    return Loop(b.build(), iterations=250, invariants=0, source="livermore")


def liv3() -> Loop:
    """Livermore 3 (inner product): q += z[k]*x[k]."""
    b = _builder("liv3")
    b.load("lz").load("lx")
    b.mul("m", deps=["lz", "lx"])
    b.add("acc", deps=["m", ("acc", 1)])
    return Loop(b.build(), iterations=1000, invariants=0, source="livermore")


def liv4() -> Loop:
    """Livermore 4 (banded linear eq.): double-width reduction."""
    b = _builder("liv4")
    b.load("lz1").load("lx1").load("lz2").load("lx2")
    b.mul("m1", deps=["lz1", "lx1"])
    b.mul("m2", deps=["lz2", "lx2"])
    b.add("a1", deps=["m1", "m2"])
    b.add("acc", deps=["a1", ("acc", 1)])
    return Loop(b.build(), iterations=300, invariants=0, source="livermore")


def liv5() -> Loop:
    """Livermore 5 (tridiagonal): x[i] = z[i]*(y[i] - x[i-1])."""
    b = _builder("liv5")
    b.load("lz").load("ly")
    b.add("sub", deps=["ly", ("m", 1)])
    b.mul("m", deps=["lz", "sub"])
    _store(b, "st", ["m"])
    return Loop(b.build(), iterations=500, invariants=0, source="livermore")


def liv6() -> Loop:
    """Livermore 6 (general linear recurrence, inner step)."""
    b = _builder("liv6")
    b.load("lb").load("lw")
    b.mul("m1", deps=["lb", ("a2", 1)])
    b.add("a1", deps=["lw", "m1"])
    b.add("a2", deps=["a1"])
    _store(b, "st", ["a2"])
    return Loop(b.build(), iterations=200, invariants=1, source="livermore")


def liv7() -> Loop:
    """Livermore 7 (equation of state): wide recurrence-free expression."""
    b = _builder("liv7")
    b.load("lu1").load("lu2").load("lu3").load("lz").load("ly")
    b.mul("m1", deps=["lu1"])      # r * u[k+3]
    b.mul("m2", deps=["lu2"])      # t * u[k+6]
    b.add("a1", deps=["lu3", "m1"])
    b.add("a2", deps=["a1", "m2"])
    b.mul("m3", deps=["lz", "a2"])
    b.add("a3", deps=["ly", "m3"])
    b.mul("m4", deps=["a3"])       # * r
    b.add("a4", deps=["m4", "a2"])
    _store(b, "st", ["a4"])
    return Loop(b.build(), iterations=120, invariants=2, source="livermore")


def liv11() -> Loop:
    """Livermore 11 (first sum): x[k] = x[k-1] + y[k]."""
    b = _builder("liv11")
    b.load("ly")
    b.add("a", deps=["ly", ("a", 1)])
    _store(b, "st", ["a"])
    return Loop(b.build(), iterations=1000, invariants=0, source="livermore")


def liv12() -> Loop:
    """Livermore 12 (first difference): x[k] = y[k+1] - y[k]."""
    b = _builder("liv12")
    b.load("ly1").load("ly2")
    b.add("d", deps=["ly1", "ly2"])
    _store(b, "st", ["d"])
    return Loop(b.build(), iterations=1000, invariants=0, source="livermore")


def liv23s() -> Loop:
    """Livermore 23 (implicit hydro, simplified): divide inside a recurrence.

    The suite's SPILP stress case: a 17-cycle divide on the critical path
    of a loop-carried recurrence forces a large II and a long MILP horizon,
    reproducing the paper's report that Loop 23 dominates SPILP's time.
    """
    b = _builder("liv23s")
    b.load("lza").load("lzb").load("lzu").load("lzv").load("lzr")
    b.mul("m1", deps=["lza", "lzu"])
    b.mul("m2", deps=["lzb", "lzv"])
    b.add("a1", deps=["m1", "m2"])
    b.add("a2", deps=["a1", "lzr"])
    b.mul("m3", deps=["a2", ("qa", 1)])
    b.add("a3", deps=["m3", "lzu"])
    b.div("qa", deps=["a3", "a1"])
    b.add("a4", deps=["qa"])       # relaxation blend with invariant factor
    b.mul("m4", deps=["a4"])
    _store(b, "st", ["m4"])
    return Loop(b.build(), iterations=150, invariants=2, source="livermore")


def daxpy() -> Loop:
    """BLAS-1 daxpy: y[i] += a * x[i]."""
    b = _builder("daxpy")
    b.load("lx").load("ly")
    b.mul("m", deps=["lx"])  # a * x[i]
    b.add("s", deps=["ly", "m"])
    _store(b, "st", ["s"])
    return Loop(b.build(), iterations=1000, invariants=1, source="blas")


def dscal() -> Loop:
    """BLAS-1 dscal: x[i] *= a."""
    b = _builder("dscal")
    b.load("lx")
    b.mul("m", deps=["lx"])
    _store(b, "st", ["m"])
    return Loop(b.build(), iterations=800, invariants=1, source="blas")


def ddot2() -> Loop:
    """Dot product unrolled by two (two partial accumulators)."""
    b = _builder("ddot2")
    b.load("lx1").load("ly1").load("lx2").load("ly2")
    b.mul("m1", deps=["lx1", "ly1"])
    b.mul("m2", deps=["lx2", "ly2"])
    b.add("acc1", deps=["m1", ("acc1", 1)])
    b.add("acc2", deps=["m2", ("acc2", 1)])
    return Loop(b.build(), iterations=500, invariants=0, source="blas")


def fir4() -> Loop:
    """Four-tap FIR filter: y[i] = sum_j c[j] * x[i+j]."""
    b = _builder("fir4")
    b.load("lx0").load("lx1").load("lx2").load("lx3")
    b.mul("m0", deps=["lx0"])
    b.mul("m1", deps=["lx1"])
    b.mul("m2", deps=["lx2"])
    b.mul("m3", deps=["lx3"])
    b.add("a0", deps=["m0", "m1"])
    b.add("a1", deps=["m2", "m3"])
    b.add("a2", deps=["a0", "a1"])
    _store(b, "st", ["a2"])
    return Loop(b.build(), iterations=600, invariants=4, source="dsp")


def stencil3() -> Loop:
    """Three-point stencil: a[i] = (b[i-1] + b[i] + b[i+1]) * third."""
    b = _builder("stencil3")
    b.load("lb0").load("lb1").load("lb2")
    b.add("a0", deps=["lb0", "lb1"])
    b.add("a1", deps=["a0", "lb2"])
    b.mul("m", deps=["a1"])
    _store(b, "st", ["m"])
    return Loop(b.build(), iterations=700, invariants=1, source="stencil")


def cmul() -> Loop:
    """Complex multiply: (a+bi)(c+di) with interleaved stores."""
    b = _builder("cmul")
    b.load("la").load("lb").load("lc").load("ld")
    b.mul("ac", deps=["la", "lc"])
    b.mul("bd", deps=["lb", "ld"])
    b.mul("ad", deps=["la", "ld"])
    b.mul("bc", deps=["lb", "lc"])
    b.add("re", deps=["ac", "bd"])
    b.add("im", deps=["ad", "bc"])
    _store(b, "st_re", ["re"])
    _store(b, "st_im", ["im"])
    return Loop(b.build(), iterations=400, invariants=0, source="dsp")


def horner4() -> Loop:
    """Degree-4 Horner evaluation: deep mul/add chain, no recurrence."""
    b = _builder("horner4")
    b.load("lx")
    b.mul("m1", deps=["lx"])
    b.add("a1", deps=["m1"])
    b.mul("m2", deps=["lx", "a1"])
    b.add("a2", deps=["m2"])
    b.mul("m3", deps=["lx", "a2"])
    b.add("a3", deps=["m3"])
    b.mul("m4", deps=["lx", "a3"])
    b.add("a4", deps=["m4"])
    _store(b, "st", ["a4"])
    return Loop(b.build(), iterations=300, invariants=5, source="poly")


def recur2() -> Loop:
    """Second-order recurrence y[i] = a*y[i-1] + b*y[i-2].

    Two backward edges with distinct distances create two recurrence
    subgraphs sharing nodes — the Figure 8c/8d classification case.
    """
    b = _builder("recur2")
    b.mul("m1", deps=[("a2", 1)])
    b.mul("m2", deps=[("a2", 2)])
    b.add("a2", deps=["m1", "m2"])
    _store(b, "st", ["a2"])
    return Loop(b.build(), iterations=400, invariants=2, source="recurrence")


def expavg() -> Loop:
    """Exponential moving average: s = alpha*x[i] + beta*s."""
    b = _builder("expavg")
    b.load("lx")
    b.mul("m1", deps=["lx"])
    b.mul("m2", deps=[("s", 1)])
    b.add("s", deps=["m1", "m2"])
    _store(b, "st", ["s"])
    return Loop(b.build(), iterations=600, invariants=2, source="dsp")


def spice1() -> Loop:
    """SPICE-style device model: divide chain, no recurrence."""
    b = _builder("spice1")
    b.load("lv").load("lg")
    b.add("a1", deps=["lv"])
    b.div("d1", deps=["lg", "a1"])
    b.mul("m1", deps=["d1", "lv"])
    b.add("a2", deps=["m1"])
    _store(b, "st", ["a2"])
    return Loop(b.build(), iterations=80, invariants=2, source="spice")


def spice2() -> Loop:
    """SPICE-style conductance update: two divides feeding a sum."""
    b = _builder("spice2")
    b.load("li").load("lv1").load("lv2")
    b.div("d1", deps=["li", "lv1"])
    b.div("d2", deps=["li", "lv2"])
    b.add("a1", deps=["d1", "d2"])
    b.mul("m1", deps=["a1"])
    _store(b, "st", ["m1"])
    return Loop(b.build(), iterations=60, invariants=1, source="spice")


def whet1() -> Loop:
    """Whetstone cycle 1: x = (x + y + z - w) * t, cross-iteration."""
    b = _builder("whet1")
    b.add("a1", deps=[("m", 1)])
    b.add("a2", deps=["a1", ("m", 1)])
    b.add("a3", deps=["a2"])
    b.mul("m", deps=["a3"])
    _store(b, "st", ["m"])
    return Loop(b.build(), iterations=500, invariants=2, source="whetstone")


def whet2() -> Loop:
    """Whetstone cycle 2: alternating adds/muls over two state values."""
    b = _builder("whet2")
    b.add("a1", deps=[("m2", 1)])
    b.mul("m1", deps=["a1"])
    b.add("a2", deps=["m1", ("m2", 1)])
    b.mul("m2", deps=["a2"])
    _store(b, "st", ["m2"])
    return Loop(b.build(), iterations=500, invariants=1, source="whetstone")


def tri_nest() -> Loop:
    """Triangular solve inner loop: acc -= l[i,j] * x[j] then divide."""
    b = _builder("tri_nest")
    b.load("ll").load("lx").load("ld")
    b.mul("m", deps=["ll", "lx"])
    b.add("a", deps=["m", ("a", 1)])
    b.div("d", deps=["a", "ld"])
    _store(b, "st", ["d"])
    return Loop(b.build(), iterations=100, invariants=0, source="linalg")


def grad2() -> Loop:
    """2-D gradient magnitude (no sqrt on this machine: sum of squares)."""
    b = _builder("grad2")
    b.load("lgx").load("lgy")
    b.mul("mx", deps=["lgx", "lgx"])
    b.mul("my", deps=["lgy", "lgy"])
    b.add("s", deps=["mx", "my"])
    _store(b, "st", ["s"])
    return Loop(b.build(), iterations=900, invariants=0, source="imaging")


#: The 24 kernels of the Table-1 comparison, fixed order.
KERNELS = [
    liv1, liv2, liv3, liv4, liv5, liv6, liv7, liv11, liv12, liv23s,
    daxpy, dscal, ddot2, fir4, stencil3, cmul, horner4, recur2,
    expavg, spice1, spice2, whet1, whet2, tri_nest,
]


def govindarajan_suite() -> list[Loop]:
    """All 24 loops in Table-1 order."""
    suite = [kernel() for kernel in KERNELS]
    assert len(suite) == 24
    return suite
