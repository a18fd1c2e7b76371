"""Shared ADI (alternating-direction implicit) machinery for SP and BT.

NAS SP solves scalar pentadiagonal systems and BT block-tridiagonal
systems along each of x, y, z every timestep.  We reproduce exactly
that numerical structure on a diffusion-like model problem:

    (I + s·D_x) (I + s·D_y) (I + s·D_z) u^{n+1} = u^n

with D a second-difference operator — pentadiagonal (fourth-order
stencil) for SP, 3×3-block tridiagonal (three coupled components) for
BT.  The domain is z-slab partitioned: x and y line solves are local;
the z solves transpose the pencil via alltoall (substituting NAS's
multi-partition scheme with the same per-step traffic volume; noted
in the root DESIGN.md).
"""

from __future__ import annotations

from typing import Generator, Tuple

import numpy as np

from ..mpi.datatypes import SUM
from .common import NasResult, nas_rng

__all__ = ["adi_kernel", "adi_serial_reference", "ADI_CLASSES",
           "solve_banded_system", "solve_block_tridiag"]

#: (grid n, timesteps)
ADI_CLASSES = {"T": (8, 2), "S": (16, 3), "W": (32, 3)}

_SIGMA = 0.3


# ---------------------------------------------------------------------
# line solvers
# ---------------------------------------------------------------------

def penta_bands(n: int, s: float) -> np.ndarray:
    """Banded form (scipy solve_banded layout, (2,2) bands) of
    I + s * D4 with D4 the fourth-order second-difference stencil
    (-1, 16, -30, 16, -1)/12, Dirichlet ends."""
    ab = np.zeros((5, n))
    ab[0, 2:] = s * (1.0 / 12.0)       # super-super
    ab[1, 1:] = s * (-16.0 / 12.0)     # super
    ab[2, :] = 1.0 + s * (30.0 / 12.0)  # diag
    ab[3, :-1] = s * (-16.0 / 12.0)    # sub
    ab[4, :-2] = s * (1.0 / 12.0)      # sub-sub
    return ab


def solve_banded_system(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the pentadiagonal system for many right-hand sides
    (columns of ``b``) — scipy's LAPACK banded solver."""
    from scipy.linalg import solve_banded
    return solve_banded((2, 2), ab, b)


def block_tridiag_blocks(n: int, s: float
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant-coefficient 3x3 block tridiagonal operator
    I + s * (B_l, B_d, B_u): three coupled components with a
    second-difference diagonal coupling and a weak rotation between
    components (keeps the blocks non-symmetric, like BT's flux
    Jacobians)."""
    rot = np.array([[0.0, 0.1, 0.0],
                    [-0.1, 0.0, 0.1],
                    [0.0, -0.1, 0.0]])
    eye = np.eye(3)
    bd = eye + s * (2.0 * eye + rot)
    bl = -s * (eye + 0.5 * rot)
    bu = -s * (eye - 0.5 * rot)
    lower = np.broadcast_to(bl, (n, 3, 3)).copy()
    diag = np.broadcast_to(bd, (n, 3, 3)).copy()
    upper = np.broadcast_to(bu, (n, 3, 3)).copy()
    return lower, diag, upper


def solve_block_tridiag(lower, diag, upper, rhs) -> np.ndarray:
    """Batched block-Thomas.  ``rhs`` shape (n, 3, m) — m independent
    lines solved at once; blocks shape (n, 3, 3)."""
    n = rhs.shape[0]
    m = rhs.shape[2]
    cp = np.zeros((n, 3, 3))
    dp = np.zeros((n, 3, m))
    inv = np.linalg.inv(diag[0])
    cp[0] = inv @ upper[0]
    dp[0] = inv @ rhs[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] @ cp[i - 1]
        inv = np.linalg.inv(denom)
        cp[i] = inv @ upper[i]
        dp[i] = inv @ (rhs[i] - lower[i] @ dp[i - 1])
    x = np.zeros_like(dp)
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] @ x[i + 1]
    return x


# ---------------------------------------------------------------------
# distributed transposes (z-slab <-> x-slab), real-valued
# ---------------------------------------------------------------------

def _transpose_fwd(mpi, local: np.ndarray, nc, nx, ny, nz):
    """(nc, nx, ny, nz/p) -> (nc, nx/p, ny, nz) via alltoall."""
    p = mpi.size
    nxl, nzl = nx // p, nz // p
    send = np.ascontiguousarray(
        local.reshape(nc, p, nxl, ny, nzl).transpose(1, 0, 2, 3, 4))
    recv = np.zeros_like(send)
    yield from mpi.Alltoall(send.reshape(-1), recv.reshape(-1))
    out = np.concatenate([recv[r] for r in range(p)], axis=3)
    return out


def _transpose_bwd(mpi, local: np.ndarray, nc, nx, ny, nz):
    """(nc, nx/p, ny, nz) -> (nc, nx, ny, nz/p)."""
    p = mpi.size
    nzl = nz // p
    send = np.ascontiguousarray(
        np.stack(np.split(local, p, axis=3)))
    recv = np.zeros_like(send)
    yield from mpi.Alltoall(send.reshape(-1), recv.reshape(-1))
    out = np.concatenate([recv[r] for r in range(p)], axis=1)
    return out


# ---------------------------------------------------------------------
# the ADI timestep
# ---------------------------------------------------------------------

def _solve_axis_scalar(u, ab, axis):
    """Scalar penta solve along ``axis`` of a 3D array."""
    moved = np.moveaxis(u, axis, 0)
    shp = moved.shape
    flat = moved.reshape(shp[0], -1)
    out = solve_banded_system(ab, flat).reshape(shp)
    return np.moveaxis(out, 0, axis)


def _solve_axis_block(u, blocks, axis):
    """Block solve along ``axis`` of a (3, nx, ny, nz) array."""
    lower, diag, upper = blocks
    moved = np.moveaxis(u, axis + 1, 1)      # (3, n, ...)
    shp = moved.shape
    flat = moved.reshape(3, shp[1], -1).transpose(1, 0, 2)  # (n, 3, m)
    sol = solve_block_tridiag(lower, diag, upper, flat)
    out = sol.transpose(1, 0, 2).reshape(shp)
    return np.moveaxis(out, 1, axis + 1)


def adi_kernel(mpi, variant: str, klass: str = "S", seed: int = 662607
               ) -> Generator[None, None, NasResult]:
    """Run the SP-style (variant="sp") or BT-style (variant="bt") ADI
    solver; distributed by z-slabs."""
    n, steps = ADI_CLASSES[klass]
    p = mpi.size
    if n % p:
        raise ValueError(f"ADI grid {n} must divide by p={p}")
    nzl = n // p
    nc = 3 if variant == "bt" else 1
    rng = nas_rng(seed)
    full = rng.standard_normal((nc, n, n, n))
    u = full[:, :, :, mpi.rank * nzl:(mpi.rank + 1) * nzl].copy()

    if variant == "sp":
        ab = penta_bands(n, _SIGMA)

        def solve(arr, axis):
            return _solve_axis_scalar(arr[0], ab, axis)[None, ...]
    else:
        blocks = block_tridiag_blocks(n, _SIGMA)

        def solve(arr, axis):
            return _solve_axis_block(arr, blocks, axis)

    t0 = mpi.wtime()
    for _step in range(steps):
        u = solve(u, 0)                      # x lines: local
        u = solve(u, 1)                      # y lines: local
        u = yield from _transpose_fwd(mpi, u, nc, n, n, n)
        u = solve(u, 2)                      # z lines: local post-transpose
        u = yield from _transpose_bwd(mpi, u, nc, n, n, n)
    local = np.array([float((u * u).sum())])
    out = np.zeros(1)
    yield from mpi.Allreduce(local, out, op=SUM)
    norm = float(np.sqrt(out[0]) / n ** 1.5)
    elapsed = mpi.wtime() - t0

    ref = adi_serial_reference(variant, klass, seed)
    verified = abs(norm - ref) <= 1e-9 * max(abs(ref), 1.0)
    return NasResult(variant, verified, norm, elapsed, iterations=steps)


def adi_serial_reference(variant: str, klass: str = "S",
                         seed: int = 662607) -> float:
    n, steps = ADI_CLASSES[klass]
    nc = 3 if variant == "bt" else 1
    rng = nas_rng(seed)
    u = rng.standard_normal((nc, n, n, n))
    if variant == "sp":
        ab = penta_bands(n, _SIGMA)
        for _step in range(steps):
            for axis in range(3):
                u = _solve_axis_scalar(u[0], ab, axis)[None, ...]
    else:
        blocks = block_tridiag_blocks(n, _SIGMA)
        for _step in range(steps):
            for axis in range(3):
                u = _solve_axis_block(u, blocks, axis)
    return float(np.sqrt((u * u).sum()) / n ** 1.5)
