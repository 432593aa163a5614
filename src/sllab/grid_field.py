"""Uniform periodic grids, complex fields, polar decomposition and the
quantum potential.

All quantities are in dimensionless simulation units (hbar, m, omega of
order 1 by default). Grids are periodic on [-L/2, L/2) per axis, and
every spatial derivative is spectral.

One node policy, with one level, serves the phase, the quantum potential
and the trajectory velocities: a point whose |psi| is below 1e-6 of its
field's maximum (`node_level`) is a node, and a quantity there takes its
value at the nearest point that is not.  Finding those points and applying
them are separate steps: `node_sources` maps every point to the point it
takes its value from, and `fill_nodes` gathers values through that map,
so a caller whose mask holds still over many fields can keep the map.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
# numpy >= 2 imports numpy.fft on the first `np.fft` lookup; importing it
# here keeps that import out of the first transform of a run, where a
# signal handler that itself looks up `np.fft` would land in the
# half-finished import and recurse without end
import numpy.fft  # noqa: F401


class GridError(ValueError):
    pass


class FieldError(ValueError):
    pass


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in 1 or 2 dimensions (square in 2D)."""

    dim: int
    length: float
    npoints: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if not 0 < self.length < np.inf:
            raise GridError(
                f"grid length must be finite and positive, got {self.length}")
        if not _is_power_of_two(self.npoints) or self.npoints < 16:
            raise GridError(
                f"points per axis must be a power of two >= 16, got {self.npoints}"
            )

    @property
    def dx(self) -> float:
        return self.length / self.npoints

    @property
    def shape(self) -> tuple:
        return (self.npoints,) * self.dim

    @property
    def size(self) -> int:
        return self.npoints ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim

    @property
    def axis_coords(self) -> np.ndarray:
        """Coordinates along one axis: x_j = -L/2 + j*dx."""
        return -0.5 * self.length + self.dx * np.arange(self.npoints)

    def meshgrid(self) -> tuple:
        """Per-axis coordinate arrays broadcast to the full grid shape."""
        axes = [self.axis_coords] * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Angular wavenumbers along `axis`, broadcastable to grid shape."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.npoints, d=self.dx)
        shape = [1] * self.dim
        shape[axis] = self.npoints
        return k.reshape(shape)

    def ksq(self) -> np.ndarray:
        """|k|^2 on the full grid."""
        out = np.zeros(self.shape)
        for ax in range(self.dim):
            out = out + self.wavenumbers(ax) ** 2
        return out

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Fold positions into the periodic box [-L/2, L/2].

        The result is in [-L/2, L/2) except at one rounding edge: a point
        a few ulps below -L/2 can fold to exactly +L/2, when x + L/2 + L
        rounds up to L (nextafter(-L/2, -inf) does at L = 20, 30, 40, not
        at L = 7.3).  Equal, bit for bit, to (x + L/2) % L - L/2, without
        the cost of a float modulo.
        """
        half = 0.5 * self.length
        a = np.asarray(x) + half
        return a - self.length * np.floor(a / self.length) - half


def make_grid(dim: int, length: float, npoints: int) -> Grid:
    """Build a periodic grid; rejects non-power-of-two point counts."""
    return Grid(dim=dim, length=length, npoints=npoints)


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, action scale and the quantum-potential weight.

    lam = 1 is the fully quantum regime, lam = 0 the classical ensemble
    regime; intermediate values are mesoscopic.  The diffusion coefficient
    of the stochastic kinematics is nu = hbar / (2 m).
    """

    m: float = 1.0
    hbar: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda weight must lie in [0, 1], got {self.lam}")

    @classmethod
    def quantum(cls, m: float = 1.0, hbar: float = 1.0) -> "PhysicalParams":
        return cls(m=m, hbar=hbar, lam=1.0)

    @classmethod
    def classical(cls, m: float = 1.0, hbar: float = 1.0) -> "PhysicalParams":
        return cls(m=m, hbar=hbar, lam=0.0)

    def with_lambda(self, lam: float) -> "PhysicalParams":
        return replace(self, lam=lam)

    @property
    def nu(self) -> float:
        """Diffusion coefficient of the stochastic kinematics."""
        return self.hbar / (2.0 * self.m)


@dataclass(frozen=True)
class PotentialSpec:
    """External potential V(q), evaluated lazily on a grid."""

    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def free(cls) -> "PotentialSpec":
        return cls("free")

    @classmethod
    def harmonic(cls, omega: float = 1.0, m: float = 1.0) -> "PotentialSpec":
        return cls("harmonic", {"omega": omega, "m": m})

    def evaluate(self, grid: Grid) -> np.ndarray:
        coords = grid.meshgrid()
        rsq = sum(c ** 2 for c in coords)
        if self.kind == "free":
            v = np.zeros(grid.shape)
        elif self.kind == "harmonic":
            try:
                v = 0.5 * self.params["m"] * self.params["omega"] ** 2 * rsq
            except OverflowError:
                # a Python float's ** raises past the largest float
                v = np.full(grid.shape, np.inf)
        else:
            raise FieldError(f"unknown potential kind {self.kind!r}")
        if not np.all(np.isfinite(v)):
            raise FieldError("potential evaluates to non-finite values")
        return v


@dataclass(frozen=True)
class Wavefunction:
    """Complex field on a grid, kept at unit discrete L2 norm."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise FieldError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def normalized(self) -> "Wavefunction":
        n = self.norm
        if n == 0 or not np.isfinite(n):
            raise FieldError("cannot normalize a zero or non-finite field")
        return Wavefunction(self.grid, self.values / n, self.t)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class PolarField:
    """Amplitude/phase pair (R, S) with S in action units and unwrapped."""

    grid: Grid
    R: np.ndarray
    S: np.ndarray
    node_mask: np.ndarray
    hbar: float = 1.0

    def density(self) -> np.ndarray:
        return self.R ** 2


def gaussian_packet(grid: Grid, center=0.0, rho_width=1.0, momentum=0.0,
                    hbar: float = 1.0) -> Wavefunction:
    """Gaussian wave packet whose *density* has rms width `rho_width`.

    In 2D `center` and `momentum` may be sequences (one entry per axis);
    the width is isotropic.
    """
    coords = grid.meshgrid()
    centers = np.broadcast_to(np.atleast_1d(center), (grid.dim,))
    moms = np.broadcast_to(np.atleast_1d(momentum), (grid.dim,))
    arg = np.zeros(grid.shape, dtype=complex)
    for ax in range(grid.dim):
        dxc = coords[ax] - centers[ax]
        arg = arg - dxc ** 2 / (4.0 * rho_width ** 2) + 1j * moms[ax] * coords[ax] / hbar
    return Wavefunction(grid, np.exp(arg), 0.0).normalized()


def plane_wave(grid: Grid, k, hbar: float = 1.0) -> Wavefunction:
    coords = grid.meshgrid()
    ks = np.broadcast_to(np.atleast_1d(k), (grid.dim,))
    phase = sum(ks[ax] * coords[ax] for ax in range(grid.dim))
    return Wavefunction(grid, np.exp(1j * phase), 0.0).normalized()


def harmonic_ground_state(grid: Grid, omega: float = 1.0, m: float = 1.0,
                          hbar: float = 1.0) -> Wavefunction:
    """Ground state of the harmonic well; FieldError when its rms density
    width sqrt(hbar / 2 m omega) is below the grid spacing (or NaN)."""
    # the width test without the root: a NaN omega fails it, and an
    # overflowing product is inf, so no numpy warning precedes the error
    if not 2.0 * m * omega * grid.dx ** 2 <= hbar:
        raise FieldError(
            f"omega={omega!r} gives a ground state narrower than the grid "
            f"spacing {grid.dx:.4g}: its rms width sqrt(hbar/2m omega) "
            "must be at least dx")
    coords = grid.meshgrid()
    rsq = sum(c ** 2 for c in coords)
    return Wavefunction(grid, np.exp(-m * omega * rsq / (2.0 * hbar)), 0.0).normalized()


def differentiate(values: np.ndarray, grid: Grid, axis: int = 0,
                  order: int = 1) -> np.ndarray:
    """Spectral derivative of a gridded field along one axis, exact for
    band-limited fields.

    `values` is one field or a stack of fields along leading axes; `axis`
    counts the grid's axes.
    """
    if order not in (1, 2):
        raise FieldError(f"derivative order must be 1 or 2, got {order}")
    if axis >= grid.dim:
        raise FieldError(f"axis {axis} out of range for dim {grid.dim}")
    values = np.asarray(values)
    array_axis = axis + values.ndim - grid.dim
    k = grid.wavenumbers(axis)
    spec = np.fft.fft(values, axis=array_axis)
    np.multiply(spec, 1j * k if order == 1 else -(k ** 2), out=spec)
    out = np.fft.ifft(spec, axis=array_axis)
    return out if np.iscomplexobj(values) else out.real


def laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Sum of the second derivatives along the grid's axes."""
    out = np.zeros(np.shape(values),
                   complex if np.iscomplexobj(values) else float)
    for ax in range(grid.dim):
        out += differentiate(values, grid, axis=ax, order=2)
    return out


def node_level(amplitude: np.ndarray, dim: int) -> np.ndarray:
    """The level 1e-6 * max |psi| below which a point of a field is a node.

    `amplitude` is |psi| of one field of `dim` axes or of a stack of them
    along leading axes; each field gets its own level, shaped to broadcast
    against the stack.
    """
    field_axes = tuple(range(amplitude.ndim - dim, amplitude.ndim))
    return 1e-6 * amplitude.max(axis=field_axes, keepdims=True)


def node_sources(mask: np.ndarray, dim: int) -> np.ndarray | None:
    """The flat index, into the stack, of the entry each entry of `mask`
    takes its value from: itself where `mask` is False, else the nearest
    entry of the same field where it is not, the point
    distance_transform_edt names.  None when nothing is masked.  `mask`
    holds one field of `dim` axes or a stack of them along leading axes; a
    field with no unmasked entry raises FieldError.

    Along one axis the nearest unmasked index is the running maximum of
    unmasked indices from the left or the running minimum from the right,
    ties to the left: the indices of the EDT, at less cost.  A 2-D field
    runs one EDT.
    """
    if not mask.any():
        return None
    shape = mask.shape[mask.ndim - dim:]
    fields = mask.reshape((-1,) + shape)
    if fields.reshape(len(fields), -1).all(axis=1).any():
        raise FieldError("a field is masked everywhere; no entry to fill from")
    if dim == 1:
        # flat indices into the stack; -big and big stand for "no unmasked
        # entry on this side of the row" and lose every comparison
        big = 4 * mask.size
        i = np.arange(mask.size).reshape(mask.shape)
        left = np.maximum.accumulate(np.where(mask, -big, i), axis=-1)
        right = np.where(mask, big, i)
        rev = right[..., ::-1]
        np.minimum.accumulate(rev, axis=-1, out=rev)
        # left wins when i - left <= right - i
        src = np.where(i <= left + right - i, left, right)
    else:
        from scipy import ndimage

        src = np.stack([np.ravel_multi_index(tuple(
            ndimage.distance_transform_edt(m, return_distances=False,
                                           return_indices=True)), shape)
            for m in fields])
        if len(fields) > 1:
            src += fields[0].size * np.arange(len(fields)).reshape(
                (-1,) + (1,) * dim)
        src = src.reshape(mask.shape)
    return src


def fill_nodes(mask: np.ndarray, dim: int, *values: np.ndarray) -> tuple:
    """Each of `values` with its entries where `mask` is True replaced by
    the nearest unmasked entry of the same field, gathered with one `take`
    from the sources `node_sources` finds once for all of them."""
    src = node_sources(mask, dim)
    if src is None:
        return values
    return tuple(np.take(v, src) for v in values)


def _unwrap_phase(raw: np.ndarray, mask: np.ndarray, start: int) -> np.ndarray:
    """Phase unwrapped breadth-first from flat index `start` over the
    unmasked points, each point from the neighbour that reached it first;
    points the search cannot reach are NaN.

    Neighbours are taken in the order (axis 0: -1, +1), (axis 1: -1, +1),
    periodic, so the search tree, and with it every unwrapped value, is
    fixed by the field alone.  The search runs one level at a time: the
    next level is the unseen neighbours of this one, in the order a queue
    would reach them, each unwrapped from the first point that names it.
    """
    flat = np.arange(raw.size).reshape(raw.shape)
    nbrs = np.stack([np.roll(flat, -step, axis=ax).ravel()
                     for ax in range(raw.ndim) for step in (-1, 1)], axis=1)
    raw_flat = raw.ravel()
    phase = np.full(raw.size, np.nan)
    phase[start] = raw_flat[start]
    seen = mask.ravel().copy()
    seen[start] = True
    # the first position at which a level's neighbour list names a point;
    # a point is named unseen by one level only, the one before its own
    claim = np.full(raw.size, nbrs.size)
    level = np.array([start])
    while level.size:
        reached = nbrs[level].ravel()
        at = np.flatnonzero(~seen[reached])
        np.minimum.at(claim, reached[at], at)
        first = at[claim[reached[at]] == at]
        parents, level = level[first // nbrs.shape[1]], reached[first]
        seen[level] = True
        phase[level] = _unwrap_from(phase[parents], raw_flat[level])
    return phase.reshape(raw.shape)


def _unwrap_from(prev: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Raw phases moved by whole turns to lie nearest their predecessors'
    unwrapped phases."""
    # np.round gives -0.0 for a small negative quotient; + 0.0 makes it
    # 0.0, as an integer turn count would be, so that a raw phase of -0.0
    # unwraps to 0.0
    turns = np.round((prev - raw) / (2.0 * np.pi)) + 0.0
    return raw + 2.0 * np.pi * turns


def polar_decompose(psi: Wavefunction, hbar: float = 1.0) -> PolarField:
    """Split psi into (R, S) with the phase unwrapped across the grid.

    Unwrapping seeds at the global maximum of R and spreads breadth-first
    to periodic neighbors, skipping node points (R below `node_level`);
    node-point phases are then filled by nearest-neighbor continuation and
    flagged in node_mask.  A field with a non-finite value raises
    FieldError.
    """
    R = np.abs(psi.values)
    finite = np.isfinite(R)
    if not finite.all():
        bad = R.size - np.count_nonzero(finite)
        raise FieldError(f"{bad} non-finite values in the field; "
                         "phase undefined")
    mask = R < node_level(R, psi.grid.dim)
    if mask.mean() > 0.9:
        raise FieldError("nearly all of the grid is at a node; phase undefined")

    phase = _unwrap_phase(np.angle(psi.values), mask, int(np.argmax(R)))
    phase = fill_nodes(~np.isfinite(phase), psi.grid.dim, phase)[0]
    return PolarField(grid=psi.grid, R=R, S=hbar * phase, node_mask=mask, hbar=hbar)


def polar_compose(polar: PolarField) -> Wavefunction:
    """Reassemble R * exp(i S / hbar) and renormalize."""
    if np.any(polar.R < 0):
        raise FieldError("amplitude must be nonnegative")
    values = polar.R * np.exp(1j * polar.S / polar.hbar)
    return Wavefunction(polar.grid, values, 0.0).normalized()


def quantum_potential_from_abs(R: np.ndarray, grid: Grid,
                               params: PhysicalParams) -> np.ndarray:
    """Quantum potential -(hbar^2/2m) * lap(R)/R from an amplitude field.

    R is one field or a stack of fields along leading axes; each field's
    node threshold is its own `node_level`.  At near-node points the value
    is clamped to the nearest unmasked point of the same field; the
    dynamics keeps equilibrium densities ~R^2 there, so the clamp affects
    a vanishing fraction of probability mass.
    """
    return _quantum_potential_masked(R, R < node_level(R, grid.dim), grid,
                                     params)


def _quantum_potential_masked(R, mask, grid, params) -> np.ndarray:
    q = laplacian(R, grid)
    np.multiply(-(params.hbar ** 2 / (2.0 * params.m)), q, out=q)
    # node points are divided by nothing: fill_nodes overwrites them
    np.divide(q, R, out=q, where=~mask)
    return fill_nodes(mask, grid.dim, q)[0]


def quantum_potential(polar: PolarField, params: PhysicalParams) -> np.ndarray:
    """Quantum potential of a polar field; depends on R only."""
    return _quantum_potential_masked(polar.R, polar.node_mask, polar.grid, params)
