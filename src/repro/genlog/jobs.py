"""Synthetic application-run workload (the job-log substitute).

The paper's application tables (Fig 2) record "a history of application
runs, the allocated resources, their sizes, user information, and exit
statuses" (§I).  This module produces that history for a synthetic
user community: jobs arrive as a Poisson process, request power-law
node counts and lognormal durations, and are placed by a simple
first-fit scheduler over the machine's flat node index space — enough
structure that spatial placement queries (Fig 6, bottom) and
user/app context queries have realistic shapes to work with.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
import numpy as np

from repro.titan.topology import TitanTopology

__all__ = ["ApplicationRun", "JobGenerator"]

_APP_NAMES = [
    "LAMMPS", "NAMD", "GROMACS", "VASP", "S3D", "XGC", "CHIMERA",
    "LSMS", "DCA+", "WL-LSMS", "Denovo", "CAM-SE", "NRDF", "QMCPACK",
]


@dataclass(frozen=True, slots=True)
class ApplicationRun:
    """One completed (or aborted) application run."""

    apid: int
    app: str
    user: str
    start: float           # seconds since simulation start
    end: float
    nodes: tuple[str, ...]  # cnames of the allocation
    exit_status: str        # "OK" | "ABORT" | "NODE_FAIL"

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def running_at(self, ts: float) -> bool:
        return self.start <= ts < self.end


class JobGenerator:
    """Generates a schedule of application runs on a topology.

    Parameters
    ----------
    topology:
        The machine being scheduled.
    num_users:
        Size of the synthetic community; users have a preferred subset
        of the ``num_apps`` applications (realistic app/user correlation
        for the Fig-2 per-user and per-app views).
    seed:
        Determinism knob.

    Submissions arrive at ``jobs_per_hour``; ``abort_fraction`` of the
    completed runs end in ABORT (failed exit status) and
    ``node_fail_fraction`` in NODE_FAIL.
    """

    num_apps = 10
    jobs_per_hour = 30.0
    mean_duration_hours = 1.5
    abort_fraction = 0.10
    node_fail_fraction = 0.03

    def __init__(self, topology: TitanTopology, *, num_users: int = 20,
                 seed: int = 4242):
        self.topology = topology
        self.users = [f"user{i:03d}" for i in range(num_users)]
        self.apps = _APP_NAMES[:self.num_apps]
        self.seed = seed

    def generate(self, hours: float) -> list[ApplicationRun]:
        """All runs that *start* within ``hours``, ordered by start time.

        Runs still active at the horizon are truncated to end there (the
        job log records what was observed during the window).
        """
        if hours <= 0:
            raise ValueError("hours must be positive")
        rng = np.random.default_rng(self.seed)
        horizon = hours * 3600.0
        total_nodes = self.topology.num_nodes
        cnames = [loc.cname for loc in self.topology.nodes()]

        # Each user sticks to a couple of preferred applications.
        prefs = {
            user: rng.choice(len(self.apps),
                             size=min(3, len(self.apps)), replace=False)
            for user in self.users
        }

        # Poisson arrivals of submissions.
        n_jobs = rng.poisson(self.jobs_per_hour * hours)
        submit_times = np.sort(rng.uniform(0.0, horizon, size=n_jobs))

        free: list[int] = list(range(total_nodes))  # min-heap of free indices
        heapq.heapify(free)
        releases: list[tuple[float, list[int]]] = []  # (end_ts, indices)
        runs: list[ApplicationRun] = []
        apid = 5_000_000

        for submit in submit_times:
            # Release allocations of jobs that finished before this arrival.
            while releases and releases[0][0] <= submit:
                _, indices = heapq.heappop(releases)
                for idx in indices:
                    heapq.heappush(free, idx)
            # Power-law-ish size: most jobs small, a few capability-scale.
            size = int(min(
                max(1, rng.pareto(1.2) * 8),
                max(1, total_nodes // 4),
            ))
            if size > len(free):
                size = len(free)
                if size == 0:
                    continue  # machine full: submission lost (queue elided)
            duration = float(
                rng.lognormal(mean=np.log(self.mean_duration_hours * 3600.0),
                              sigma=0.8)
            )
            end = min(submit + duration, horizon)
            user = self.users[int(rng.integers(0, len(self.users)))]
            app = self.apps[int(rng.choice(prefs[user]))]
            indices = [heapq.heappop(free) for _ in range(size)]
            heapq.heappush(releases, (end, indices))
            status = "OK"
            draw = rng.random()
            if draw < self.node_fail_fraction:
                status = "NODE_FAIL"
            elif draw < self.node_fail_fraction + self.abort_fraction:
                status = "ABORT"
            runs.append(ApplicationRun(
                apid=apid,
                app=app,
                user=user,
                start=float(submit),
                end=float(end),
                nodes=tuple(cnames[i] for i in sorted(indices)),
                exit_status=status,
            ))
            apid += 1
        return runs

    @staticmethod
    def running_at(runs: list[ApplicationRun], ts: float
                   ) -> list[ApplicationRun]:
        """The runs active at *ts* (placement snapshot for Fig 6)."""
        return [r for r in runs if r.running_at(ts)]
