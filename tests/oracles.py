"""Independent reference implementations used as test oracles.

Deliberately coded with different numerics than the package: dense
Crank-Nicolson time stepping on a finite-difference Hamiltonian, and a
finite-difference Madelung (rho, S) integrator.  Nothing here imports
from sllab except the Grid geometry conventions (periodic box
[-L/2, L/2), x_j = -L/2 + j*dx).
"""

import numpy as np


def fd_laplacian_matrix(n: int, dx: float) -> np.ndarray:
    """Periodic second-order central-difference Laplacian, dense."""
    lap = np.zeros((n, n))
    for j in range(n):
        lap[j, j] = -2.0
        lap[j, (j - 1) % n] = 1.0
        lap[j, (j + 1) % n] = 1.0
    return lap / dx ** 2


def crank_nicolson_evolve(psi0: np.ndarray, length: float, v: np.ndarray,
                          dt: float, steps: int, m: float = 1.0,
                          hbar: float = 1.0) -> np.ndarray:
    """1D Crank-Nicolson with a dense FD Hamiltonian.

    (I + i dt H / 2 hbar) psi_{k+1} = (I - i dt H / 2 hbar) psi_k,
    stepped by a prefactored dense solve.  Unitary up to roundoff.
    """
    n = len(psi0)
    dx = length / n
    h = -(hbar ** 2 / (2.0 * m)) * fd_laplacian_matrix(n, dx) + np.diag(v)
    a = np.eye(n) + 0.5j * dt * h / hbar
    b = np.eye(n) - 0.5j * dt * h / hbar
    step = np.linalg.solve(a, b)
    psi = np.asarray(psi0, dtype=complex).copy()
    for _ in range(steps):
        psi = step @ psi
    return psi


def _pgrad(f: np.ndarray, dx: float) -> np.ndarray:
    """Periodic central-difference first derivative."""
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * dx)


def _plap(f: np.ndarray, dx: float) -> np.ndarray:
    return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / dx ** 2


def madelung_evolve(rho0: np.ndarray, s0: np.ndarray, length: float,
                    v: np.ndarray, dt: float, steps: int, lam: float = 1.0,
                    m: float = 1.0, hbar: float = 1.0):
    """Hydrodynamic-form integrator for node-free fields.

    d rho/dt = -d/dx (rho dS/dx / m)
    d S/dt   = -((dS/dx)^2 / 2m + V + lam * Q[rho])
    with Q = -(hbar^2/2m) lap(sqrt(rho))/sqrt(rho), all derivatives
    second-order finite differences, RK4 in time.
    """
    n = len(rho0)
    dx = length / n

    def rhs(state):
        rho, s = state
        grad_s = _pgrad(s, dx)
        r = np.sqrt(np.maximum(rho, 1e-300))
        q = -(hbar ** 2 / (2.0 * m)) * _plap(r, dx) / r
        drho = -_pgrad(rho * grad_s / m, dx)
        ds = -(grad_s ** 2 / (2.0 * m) + v + lam * q)
        return np.array([drho, ds])

    state = np.array([np.asarray(rho0, float), np.asarray(s0, float)])
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state[0], state[1]


def free_gaussian_width(t: float, s0: float = 1.0, m: float = 1.0,
                        hbar: float = 1.0) -> float:
    """Rms density width of a free Gaussian packet at time t."""
    return s0 * np.sqrt(1.0 + (hbar * t / (2.0 * m * s0 ** 2)) ** 2)


def free_gaussian_bohm_path(x0: float, t: float, s0: float = 1.0,
                            m: float = 1.0, hbar: float = 1.0) -> float:
    """Closed-form pilot-wave trajectory in a spreading free Gaussian:
    streamlines dilate with the width, x(t) = x0 * s(t)/s0."""
    return x0 * free_gaussian_width(t, s0, m, hbar) / s0


def gaussian_quantum_potential(x: np.ndarray, s0: float = 1.0, m: float = 1.0,
                               hbar: float = 1.0) -> np.ndarray:
    """Q for a Gaussian amplitude R ~ exp(-x^2/4 s0^2):
    Q = (hbar^2 / 2m) * (1/(2 s0^2) - x^2/(4 s0^4))."""
    return (hbar ** 2 / (2.0 * m)) * (1.0 / (2.0 * s0 ** 2)
                                      - x ** 2 / (4.0 * s0 ** 4))


def ou_euler_law(omega: float, dt: float, nu: float):
    """Stationary variance and lag-1 correlation of the Euler-Maruyama
    chain of an Ornstein-Uhlenbeck process, q' = (1 - omega dt) q +
    sqrt(2 nu dt) xi: an AR(1) chain, whose variance
    2 nu dt / (1 - (1 - omega dt)^2) = 2 nu / (omega (2 - omega dt))
    exceeds the continuous process's nu / omega."""
    a = 1.0 - omega * dt
    return 2.0 * nu * dt / (1.0 - a * a), a


def two_evaluation_lambda_evolve(psi0: np.ndarray, length: float,
                                 v: np.ndarray, dt: float, steps: int,
                                 lam: float, quantum_potential,
                                 stride: int = 1, m: float = 1.0,
                                 hbar: float = 1.0):
    """1D Strang split step for lam-dynamics that evaluates the quantum
    potential afresh at both half kicks of every step (twice per step).

    quantum_potential(R) returns Q of an amplitude field R.  Returns the
    final field and max |Q| for the initial state and for every `stride`-th
    step, where a step's value is the larger of its two evaluations.
    """
    n = len(psi0)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    kinetic = np.exp(-1j * hbar * k ** 2 * dt / (2.0 * m))

    def half_kick(psi):
        q = quantum_potential(np.abs(psi))
        veff = v + (lam - 1.0) * q
        return psi * np.exp(-0.5j * veff * dt / hbar), float(np.max(np.abs(q)))

    psi = np.asarray(psi0, dtype=complex)
    max_q = [float(np.max(np.abs(quantum_potential(np.abs(psi)))))]
    for step in range(1, steps + 1):
        psi, q_start = half_kick(psi)
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        psi, q_end = half_kick(psi)
        if step % stride == 0:
            max_q.append(max(q_start, q_end))
    return psi, max_q
