"""LP-relaxation lower bound on the optimal makespan (Section 6, Fig. 13).

The scheduling program SCH is a quadratic integer program: the first
constraint multiplies the indicator ``u_ij`` by the partition size
``l_ij``.  Following the paper's reformulation, the quadratic term is
linearised by (a) letting ``u_ij`` apply only to the executable-shipping
term and (b) adding the linking constraint ``l_ij <= L_j * u_ij`` so a
phone cannot receive input without paying for the executable.  Relaxing
``u_ij`` to ``[0, 1]`` then yields a linear program whose optimum
``T_relaxed`` satisfies::

    T_relaxed  <=  T_optimal  <=  T_cwc

Figure 13 compares ``T_cwc`` (the greedy scheduler) against
``T_relaxed`` over 1000 random configurations; the paper reports a
median gap of about 18 %.

One builder
-----------
:func:`solve_pod_relaxed_makespan` is the only LP assembly and the
only HiGHS call.  It relaxes the machine set in *pods* (disjoint groups
of phones): pod ``p`` becomes ``n_p`` identical copies of its
componentwise-best phone — executable shipping at ``min_i b_i`` and
input processing at ``min_i (b_i + c_ij)`` per KB, minimised over the
pod's members per job.  Speeding machines up only shrinks the optimum,
so the pod optimum remains a valid lower bound on the true makespan::

    T_pod  <=  T_relaxed  <=  T_optimal

With one phone per pod nothing is aggregated and the program is the
exact relaxation above: :func:`solve_relaxed_makespan` is that case.
With a few large pods the variable count drops from ``2 * P * J`` to
at most ``2 * n_pods * J``, which keeps the bound affordable at the
fleet scales the sharded scheduler targets (4000 x 20000 would be 160M
exact variables).  ``T_pod`` certifies the sharded schedule
(``shard_bound_ratio = T_sharded / T_pod``) — the certificate half of
the coordination-through-an-LP-relaxation pattern of the
distributed-clusters approximation literature (Murray-Khuller-Chao,
PAPERS.md).  It only certifies: the sharded scheduler splits jobs
across pods with its own greedy splitter, and no scheduling decision
reads the fractional allocation ``l_pj`` (DESIGN.md §14.2).

The LP is assembled sparsely and solved with scipy's HiGHS backend.
scipy is loaded on the first solve (:func:`load_solver`), not on import:
the CWC server itself only runs the greedy packer, so a run that never
certifies never pays for the LP stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import SchedulingInstance

__all__ = [
    "RelaxedSolution",
    "load_solver",
    "solve_pod_relaxed_makespan",
    "solve_relaxed_makespan",
]

#: ``scipy.sparse`` and ``scipy.optimize.linprog``, bound by
#: :func:`load_solver`.  ``linprog`` stays a module attribute so a test
#: can patch it before or after the first load.
sparse = None
linprog = None


def load_solver() -> None:
    """Import the LP stack (scipy's sparse matrices and HiGHS) once.

    The builder calls this before its first solve.  A caller that
    forks workers which will solve LPs calls it first, so every child
    inherits the loaded modules instead of importing them itself.
    """
    global sparse, linprog
    if sparse is None:
        from scipy import sparse
    if linprog is None:
        from scipy.optimize import linprog


@dataclass(frozen=True)
class RelaxedSolution:
    """Solution of the LP relaxation over a set of phone groups.

    ``makespan_ms`` is the LP optimum, a valid lower bound on the
    optimal makespan of the full instance; ``l_kb[g, j]`` and
    ``u[g, j]`` are the fractional input allocation and
    executable-shipping indicators, indexed by group position and job
    position.  For :func:`solve_relaxed_makespan` every group is one
    phone, so the rows follow ``instance.phones``.
    """

    makespan_ms: float
    l_kb: np.ndarray
    u: np.ndarray


def solve_relaxed_makespan(instance: SchedulingInstance) -> RelaxedSolution:
    """Solve the exact LP relaxation of SCH (Fig. 13's ``T_relaxed``).

    The pod relaxation with one phone per pod: each pod's best member
    is the phone itself, so nothing is aggregated.  Raises
    ``RuntimeError`` if HiGHS fails, which for this always-feasible LP
    indicates malformed input.
    """
    return solve_pod_relaxed_makespan(
        instance, tuple((i,) for i in range(len(instance.phones)))
    )


def solve_pod_relaxed_makespan(
    instance: SchedulingInstance,
    pods: tuple[tuple[int, ...], ...],
    *,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> RelaxedSolution:
    """Solve the pod-aggregated LP relaxation (see the module docstring).

    ``pods`` is a disjoint cover of phone positions (as produced by
    :func:`repro.core.pod.partition_phones`).  Pod ``p`` is relaxed to
    ``n_p`` copies of its componentwise-best member: executable
    shipping at ``bmin_p = min_i b_i`` and per-KB processing of job
    ``j`` at ``cmin_pj = min_i (b_i + c_ij)``, so the per-pod load
    constraint reads::

        sum_j u_pj E_j bmin_p + l_pj cmin_pj  <=  n_p * T

    Any real schedule induces a feasible point (``l_pj`` = input KB of
    job ``j`` placed in pod ``p``, ``u_pj`` = phones in pod ``p``
    shipping ``j``'s executable) with value at most its makespan, so
    the LP optimum lower-bounds the optimal makespan.

    ``tables`` optionally passes precomputed ``(bmin, cmin)`` arrays
    (the sharded scheduler computes them once per round for the greedy
    splitter too).  Raises ``ValueError`` on an empty/overlapping pod
    cover and ``RuntimeError`` if HiGHS fails.

    Implementation note: breakable jobs' ``u_pj`` never appear as
    variables.  ``u`` only ever adds load, so at the optimum the
    linking constraint ``l_pj <= L_j u_pj`` is tight and
    ``u_pj = l_pj / L_j`` exactly — substituting folds the executable
    term into the ``l`` coefficient (``cmin_pj + E_j bmin_p / L_j``)
    and drops half the variables plus every breakable linking row,
    which is what keeps the certification affordable at the
    4000 x 20000 bench scale.  Atomic jobs keep explicit ``u``
    (their unit-coverage equality cannot be folded).  The fold needs
    ``u`` continuous: an integral breakable ``u`` is not ``l / L``.
    """
    n_phones = len(instance.phones)
    n_jobs = len(instance.jobs)
    n_pods = len(pods)
    if n_pods == 0:
        raise ValueError("at least one pod is required")
    seen: set[int] = set()
    for p, members in enumerate(pods):
        if not members:
            raise ValueError(f"pod {p} is empty")
        for pos in members:
            if not 0 <= pos < n_phones:
                raise ValueError(
                    f"pod {p} references phone position {pos} "
                    f"outside [0, {n_phones})"
                )
            if pos in seen:
                raise ValueError(
                    f"phone position {pos} appears in more than one pod"
                )
            seen.add(pos)

    load_solver()
    if tables is not None:
        bmin, cmin = tables
    else:
        from .pod import pod_rate_tables

        bmin, cmin, _ = pod_rate_tables(instance, pods)
    pod_sizes = np.array([len(members) for members in pods], dtype=np.float64)
    exe = np.array([job.executable_kb for job in instance.jobs])
    size = np.array([job.input_kb for job in instance.jobs])
    atomic = np.array([job.is_atomic for job in instance.jobs])

    n_pairs = n_pods * n_jobs
    atomic_jobs = np.flatnonzero(atomic)
    n_atomic = len(atomic_jobs)
    n_apairs = n_pods * n_atomic
    # Variable layout: [T, l_00.., u_atomic_00..] with pods varying
    # slowest in each block; breakable u are substituted away.
    l0, u0 = 1, 1 + n_pairs
    n_vars = 1 + n_pairs + n_apairs
    pair = np.arange(n_pairs)
    pod_of_pair = pair // n_jobs
    job_of_pair = pair % n_jobs
    apair = np.arange(n_apairs)
    pod_of_apair = apair // max(n_atomic, 1)
    ajob_of_apair = atomic_jobs[apair % max(n_atomic, 1)] if n_atomic else apair

    cost = np.zeros(n_vars)
    cost[0] = 1.0

    # (1) Per-pod load: the l coefficient is cmin_pj, plus the folded
    # executable term E_j bmin_p / L_j for breakable jobs; atomic u
    # keeps its explicit E_j bmin_p term.
    l_coef = cmin.reshape(-1).copy()
    sizes_of_pair = size[job_of_pair]
    foldable = (~atomic[job_of_pair]) & (sizes_of_pair > 0)
    l_coef[foldable] += (
        exe[job_of_pair][foldable]
        * bmin[pod_of_pair][foldable]
        / sizes_of_pair[foldable]
    )
    load_rows = np.concatenate([
        np.arange(n_pods),      # -n_p * T
        pod_of_pair,            # l coefficients
        pod_of_apair,           # atomic u coefficients
    ])
    load_cols = np.concatenate([
        np.zeros(n_pods, dtype=np.intp),
        l0 + pair,
        u0 + apair,
    ])
    load_vals = np.concatenate([
        -pod_sizes,
        l_coef,
        exe[ajob_of_apair] * bmin[pod_of_apair],
    ])
    # (3) Linking, atomic pairs only: l_pj - L_j u_pj <= 0.
    link_l_cols = l0 + pod_of_apair * n_jobs + ajob_of_apair
    link_rows = np.concatenate([n_pods + apair, n_pods + apair])
    link_cols = np.concatenate([link_l_cols, u0 + apair])
    link_vals = np.concatenate([np.ones(n_apairs), -size[ajob_of_apair]])
    a_ub = sparse.csr_matrix(
        (
            np.concatenate([load_vals, link_vals]),
            (
                np.concatenate([load_rows, link_rows]),
                np.concatenate([load_cols, link_cols]),
            ),
        ),
        shape=(n_pods + n_apairs, n_vars),
    )
    b_ub = np.zeros(n_pods + n_apairs)

    # (2) Coverage: sum_p l_pj = L_j; (4) atomic: sum_p u_pj = 1.
    eq_rows = np.concatenate([
        job_of_pair,
        n_jobs + apair % max(n_atomic, 1) if n_atomic else apair,
    ])
    eq_cols = np.concatenate([l0 + pair, u0 + apair])
    eq_vals = np.ones(len(eq_rows))
    a_eq = sparse.csr_matrix(
        (eq_vals, (eq_rows, eq_cols)),
        shape=(n_jobs + n_atomic, n_vars),
    )
    b_eq = np.concatenate([size, np.ones(n_atomic)])

    bounds = [(0.0, None)]
    bounds += [(0.0, float(size[j])) for j in job_of_pair]
    # Atomic u counts executable-shipping phones: at most one per pod,
    # exactly one in total.
    bounds += [(0.0, 1.0)] * n_apairs

    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(
            f"pod LP relaxation failed (status {result.status}): "
            f"{result.message}"
        )
    l_kb = np.asarray(result.x[l0:u0]).reshape(n_pods, n_jobs)
    # Reconstruct the substituted breakable u = l / L (0 where L = 0).
    u = np.zeros((n_pods, n_jobs))
    positive = size > 0
    fold_cols = (~atomic) & positive
    u[:, fold_cols] = l_kb[:, fold_cols] / size[fold_cols]
    if n_atomic:
        u[:, atomic_jobs] = np.asarray(result.x[u0:]).reshape(
            n_pods, n_atomic
        )
    return RelaxedSolution(float(result.x[0]), l_kb, u)
