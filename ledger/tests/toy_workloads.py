"""Toy workload table for test_ledger.py: the harness end to end in
about a second per repetition (n=4, 2 simulated seconds)."""

from repro.experiments.runner import Scenario

from workloads import Workload, scenario_workload


def _toy(seed: int):
    return [
        Scenario(name="toy-pbft", protocol="pbft", deployment="wonderproxy-4",
                 workload="closed-loop", duration=2.0, seed=seed),
        Scenario(name="toy-hotstuff", protocol="hotstuff-rr", deployment="wonderproxy-4",
                 workload="open-loop", workload_params={"rate": 50.0},
                 duration=2.0, seed=seed),
    ]


def _raise(seed: int):
    raise RuntimeError("toy-raises always raises")


WORKLOADS = {
    "toy": scenario_workload(_toy),
    "toy-raises": Workload(_raise, _raise, _raise),
}
