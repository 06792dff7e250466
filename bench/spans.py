"""Span tracing of spinchannel from outside the package.

The benchmark never edits the program.  It replaces public functions of the
package modules by wrappers that record one span per call (name, start, end,
parent span, a few attributes) and rebinds each wrapper in every module
namespace that imported the original, so a call is timed once whichever
module makes it.  Sparse products are counted by swapping the CSR matrix
inside the ``SparseOperator`` that the wrapped builders return for a
subclass whose ``_matmul_vector`` reports count, time and computed bytes.

A span's self time is its duration minus its child spans and the products
made directly inside it, so the self times of all spans plus the product
time add up to the root span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

from scipy.sparse import csr_matrix


class CountingCSR(csr_matrix):
    """CSR matrix whose vector products report to a tracer.

    Instances are made by re-classing the matrix a builder returned, so the
    stored arrays and therefore the products stay bit-identical.
    """

    _bench_tracer = None
    _bench_kind = None
    _bench_bytes = 0

    def _matmul_vector(self, other):
        t0 = time.perf_counter()
        out = super()._matmul_vector(other)
        elapsed = time.perf_counter() - t0
        if self._bench_tracer is not None:
            nbytes = self._bench_bytes + other.size * other.itemsize + out.size * out.itemsize
            self._bench_tracer.matvec(self._bench_kind, elapsed, nbytes)
        return out


def count_products(op, tracer, kind: str) -> None:
    """Make the products of ``op.matrix`` report to ``tracer`` under ``kind``."""
    m = op.matrix
    m.__class__ = CountingCSR
    m._bench_tracer = tracer
    m._bench_kind = kind
    # computed bytes of one product: values, column indices and row pointers
    # read once; the vector terms are added per product (real or complex)
    m._bench_bytes = (
        m.nnz * (m.data.itemsize + m.indices.itemsize) + m.indptr.size * m.indptr.itemsize
    )


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.matvecs: dict[str, dict] = {}
        self._stack: list[dict] = []
        self._next_id = 0

    def begin(self, name: str) -> dict:
        self._next_id += 1
        frame = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "matvecs": 0,
            "matvec_s": 0.0,
            "_child_s": 0.0,
            "start": time.perf_counter(),
        }
        self._stack.append(frame)
        return frame

    def end(self, frame: dict) -> None:
        end = time.perf_counter()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame['name']} closed out of order")
        self._stack.pop()
        dur = end - frame["start"]
        frame.update(end=end, dur_s=dur, self_s=dur - frame.pop("_child_s"))
        if self._stack:
            self._stack[-1]["_child_s"] += dur
        self.spans.append(frame)

    def matvec(self, kind: str, seconds: float, nbytes: int) -> None:
        total = self.matvecs.setdefault(kind, {"count": 0, "seconds": 0.0, "bytes": 0})
        total["count"] += 1
        total["seconds"] += seconds
        total["bytes"] += nbytes
        if self._stack:
            self._stack[-1]["_child_s"] += seconds
            for frame in self._stack:
                frame["matvecs"] += 1
                frame["matvec_s"] += seconds


def rebind(original, replacement) -> None:
    """Replace ``original`` by ``replacement`` in every spinchannel module."""
    found = False
    for name, module in list(sys.modules.items()):
        if name != "spinchannel" and not name.startswith("spinchannel."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                found = True
    if not found:
        raise RuntimeError(f"{original.__qualname__} is bound in no spinchannel module")


# --- span attributes, read from the bound arguments and the result ---------


def _sector_attrs(args, result):
    return {"n_sites": result.n_sites, "twice_sz": result.twice_sz, "dim": result.dim}


def _builder_attrs(args, result):
    return {
        "L": args["spec"].L,
        "twice_sz": args["sector"].twice_sz,
        "dim": result.dim,
        "nnz": int(result.matrix.nnz),
    }


def _solve_attrs(args, result):
    return {
        "dim": args["op"].dim,
        "k": args["k"],
        "max_residual": max(p.residual for p in result),
    }


def _spectral_attrs(args, result):
    return {"L": args["spec"].L}


def _full_chain_attrs(args, result):
    return {"L": args["spec"].L, "temperature": args["temperature"], "points": len(result.times)}


def _no_attrs(args, result):
    return {}


# (module, function, span name, attribute reader, product kind of the result)
TRACED = [
    ("chain", "enumerate_sector", "chain.enumerate", _sector_attrs, None),
    ("chain", "build_chain_hamiltonian", "chain.assemble", _builder_attrs, "chain"),
    ("chain", "build_transfer_hamiltonian", "chain.assemble", _builder_attrs, "transfer"),
    ("chain", "pauli_z_expectation", "chain.correlator", _no_attrs, None),
    ("chain", "pauli_zz_expectation", "chain.correlator", _no_attrs, None),
    ("chain", "pauli_xx_expectation", "chain.correlator", _no_attrs, None),
    ("eigensolve", "lowest_eigenpairs", "eigensolve.solve", _solve_attrs, None),
    ("eigensolve", "spectral_data", "eigensolve.spectral", _spectral_attrs, None),
    ("transfer", "full_chain_transfer", "transfer.full_chain", _full_chain_attrs, None),
    ("scaling", "gap_sweep", "scaling.sweep", _no_attrs, None),
    ("scaling", "fit_power_law", "scaling.fit", _no_attrs, None),
]


def _traced(func, tracer: Tracer, span_name: str, read_attrs, kind):
    signature = inspect.signature(func)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(span_name)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            frame["error"] = True
            raise
        finally:
            tracer.end(frame)
        if kind is not None:
            count_products(result, tracer, kind)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        frame.update(read_attrs(bound.arguments, result))
        return result

    return wrapper


def install_tracer(tracer: Tracer) -> None:
    """Wrap every function in TRACED once and rebind it package-wide."""
    for module_name, func_name, span_name, read_attrs, kind in TRACED:
        original = getattr(sys.modules[f"spinchannel.{module_name}"], func_name)
        if hasattr(original, "__wrapped__"):
            raise RuntimeError(f"{func_name} is already wrapped")
        rebind(original, _traced(original, tracer, span_name, read_attrs, kind))


def install_residual_probe() -> list[float]:
    """Untraced runs: record only the residuals ``lowest_eigenpairs`` returns.

    Returns the list the residuals are appended to.
    """
    residuals: list[float] = []
    original = sys.modules["spinchannel.eigensolve"].lowest_eigenpairs

    @functools.wraps(original)
    def probe(*args, **kwargs):
        pairs = original(*args, **kwargs)
        residuals.extend(p.residual for p in pairs)
        return pairs

    rebind(original, probe)
    return residuals
