"""Code generation for the dense fused kernel (the paper's Listing 2).

CUDA only keeps arrays in registers when every index is a compile-time
constant, so the paper generates a specialized kernel per (n, VS, TL) with
the ``l_y``/``l_X``/``l_w`` loops fully unrolled into *named* registers
(``l_y1``, ``l_y2``, ...).  We reproduce that mechanism faithfully in the
simulation's host language: :func:`generate_source` emits Python source whose
per-thread-load block is unrolled into explicitly named locals, and
:func:`get_kernel` compiles and caches it per specialization key — the same
"generate at invocation time, negligible cost vs. compute" workflow the paper
describes.

The generated function computes ``alpha * X^T (v ⊙ (X y))`` for a dense,
VS-padded ``X`` with all rows processed batch-wise (the batch axis plays the
role of the grid of vectors; the unrolled column slices play the role of each
thread's registers).
"""

from __future__ import annotations

import math

_KERNEL_CACHE: dict[tuple[int, int, int], object] = {}


def specialization_key(n: int, vs: int, tl: int) -> tuple[int, int, int]:
    """Cache key for one generated kernel (mirrors ``mtmvm_<n>_<VS>_<TL>``)."""
    return (int(n), int(vs), int(tl))


def generate_source(n: int, vs: int, tl: int) -> str:
    """Emit unrolled Python source for the ``mtmvm_{n}_{vs}_{tl}`` kernel.

    ``n`` must equal ``vs * tl`` (the padded column count); each of the ``tl``
    unroll steps owns one ``vs``-wide column slice, held in named locals.
    """
    if n != vs * tl:
        raise ValueError(f"padded n={n} must equal VS*TL={vs}*{tl}")
    if tl < 1 or vs < 1:
        raise ValueError("VS and TL must be positive")

    name = f"mtmvm_{n}_{vs}_{tl}"
    lines = [
        f"def {name}(X, y, v, alpha, out):",
        f'    """Generated fused kernel: n={n}, VS={vs}, TL={tl} '
        '(unrolled)."""',
    ]
    # --- load y into registers (Algorithm 3 lines 4-5, unrolled) ------------
    for i in range(1, tl + 1):
        lo, hi = (i - 1) * vs, i * vs
        lines.append(f"    l_y{i} = y[{lo}:{hi}]")
    # --- load X slices into registers (lines 11-12, unrolled) ---------------
    for i in range(1, tl + 1):
        lo, hi = (i - 1) * vs, i * vs
        lines.append(f"    l_X{i} = X[:, {lo}:{hi}]")
    # --- dot product with register accumulation (line 13, unrolled) ---------
    lines.append("    s = l_X1 @ l_y1")
    for i in range(2, tl + 1):
        lines.append(f"    s += l_X{i} @ l_y{i}")
    # --- the v ⊙ (.) step (line 20) ------------------------------------------
    lines.append("    if v is not None:")
    lines.append("        s = s * v")
    # --- scale rows and accumulate partial w (lines 23-24 + 26-27, unrolled) -
    for i in range(1, tl + 1):
        lines.append(f"    l_w{i} = l_X{i}.T @ s")
    for i in range(1, tl + 1):
        lo, hi = (i - 1) * vs, i * vs
        lines.append(f"    out[{lo}:{hi}] += alpha * l_w{i}")
    lines.append("    return out")
    return "\n".join(lines) + "\n"


def ensure_kernel(n: int, vs: int, tl: int) -> tuple[object, bool]:
    """Fetch (or compile) the specialized kernel; reports whether this call
    actually compiled it — session layers use the flag for accounting."""
    key = specialization_key(n, vs, tl)
    fn = _KERNEL_CACHE.get(key)
    if fn is not None:
        return fn, False
    src = generate_source(n, vs, tl)
    namespace: dict[str, object] = {}
    code = compile(src, filename=f"<generated mtmvm_{n}_{vs}_{tl}>",
                   mode="exec")
    exec(code, namespace)  # noqa: S102 - generated from trusted template
    fn = namespace[f"mtmvm_{n}_{vs}_{tl}"]
    _KERNEL_CACHE[key] = fn
    return fn, True


def get_kernel(n: int, vs: int, tl: int):
    """Compile (or fetch from cache) the specialized kernel function."""
    return ensure_kernel(n, vs, tl)[0]


def cache_size() -> int:
    return len(_KERNEL_CACHE)


def clear_cache() -> None:
    _KERNEL_CACHE.clear()


def pad_for_vector_size(n: int, vs: int) -> int:
    """Columns after zero-padding so VS divides n (at most VS-1 extra)."""
    return math.ceil(n / vs) * vs


# --------------------------------------------------------------------------
# Cell-wise fused kernels (optimizer-emitted regions)
# --------------------------------------------------------------------------

_CELLWISE_CACHE: dict[tuple, object] = {}


def generate_cellwise_source(n: int, vs: int, tl: int, program) -> str:
    """Emit unrolled source for a fused cell-wise kernel.

    ``program`` is a :class:`repro.kernels.cellwise.CellwiseProgram`.  The
    emitted ``cellwise_{n}_{vs}_{tl}(a0, ..., ak, out)`` follows the same
    Listing-2 register discipline as :func:`generate_source`: each of the
    ``tl`` unroll steps loads every operand's ``vs``-wide slice into named
    locals with compile-time-constant bounds, evaluates the region's whole
    expression in registers, and stores the result slice exactly once —
    the invariants :func:`repro.analyze.check_cellwise_source` enforces.
    """
    if n != vs * tl:
        raise ValueError(f"padded n={n} must equal VS*TL={vs}*{tl}")
    if tl < 1 or vs < 1:
        raise ValueError("VS and TL must be positive")

    name = f"cellwise_{n}_{vs}_{tl}"
    args = [f"a{k}" for k in range(program.n_inputs)]
    lines = [
        f"def {name}({', '.join(args)}, out):",
        f'    """Generated fused cell-wise kernel: '
        f'{program.describe()} (n={n}, VS={vs}, TL={tl})."""',
    ]
    for i in range(1, tl + 1):
        lo, hi = (i - 1) * vs, i * vs
        for k in range(program.n_inputs):
            lines.append(f"    l_a{k}s{i} = a{k}[{lo}:{hi}]")
        expr = program.render(
            [f"l_a{k}s{i}" for k in range(program.n_inputs)])
        lines.append(f"    out[{lo}:{hi}] = {expr}")
    lines.append("    return out")
    return "\n".join(lines) + "\n"


def ensure_cellwise_kernel(n: int, vs: int, tl: int,
                           program) -> tuple[object, bool]:
    """Fetch (or compile) a cell-wise specialization; flags compilation."""
    key = (program.expr, program.n_inputs, int(n), int(vs), int(tl))
    fn = _CELLWISE_CACHE.get(key)
    if fn is not None:
        return fn, False
    src = generate_cellwise_source(n, vs, tl, program)
    namespace: dict[str, object] = {}
    code = compile(src, filename=f"<generated cellwise_{n}_{vs}_{tl}>",
                   mode="exec")
    exec(code, namespace)  # noqa: S102 - generated from trusted template
    fn = namespace[f"cellwise_{n}_{vs}_{tl}"]
    _CELLWISE_CACHE[key] = fn
    return fn, True


def cellwise_cache_size() -> int:
    return len(_CELLWISE_CACHE)


def clear_cellwise_cache() -> None:
    _CELLWISE_CACHE.clear()

