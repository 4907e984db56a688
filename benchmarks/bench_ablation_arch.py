"""Ablation: centralized (M=1) vs polycentric vs decentralized (M=N).

The paper claims FIFL generalizes across the three architectures by
varying the number of servers (S3.2). This bench verifies (a) the global
model is bit-identical across architectures on a reliable network and
(b) how communication volume scales with M.
"""

import numpy as np

from repro.experiments import FedExpConfig, run_federated

from conftest import emit, run_once


def _train(server_ranks):
    cfg = FedExpConfig(
        dataset="blobs",
        num_workers=6,
        samples_per_worker=100,
        test_samples=100,
        rounds=8,
        eval_every=8,
        server_ranks=tuple(server_ranks),
        seed=11,
    )
    history, _ = run_federated(cfg, with_fifl=False)
    return history.final_accuracy()


def link_count(num_workers: int, num_servers: int) -> int:
    """Physical links when every server talks to every other node.

    Each of the M servers links to the N - 1 other nodes; the M(M-1)/2
    server-server links are counted twice by that sum.
    """
    m = num_servers
    return m * (num_workers - 1) - m * (m - 1) // 2


def bench_ablation_architectures(benchmark):
    def sweep():
        return {
            "centralized (M=1)": _train([0]),
            "polycentric (M=3)": _train([0, 2, 4]),
            "decentralized (M=N)": _train(list(range(6))),
        }

    result = run_once(benchmark, sweep)
    links = {
        "centralized (M=1)": link_count(6, 1),
        "polycentric (M=3)": link_count(6, 3),
        "decentralized (M=N)": link_count(6, 6),
    }
    emit(
        "Ablation: FL architectures",
        [
            f"{name:>20}  final_acc={acc:.4f}  links={links[name]}"
            for name, acc in result.items()
        ],
    )
    accs = list(result.values())
    # identical learning outcome regardless of server count
    assert np.allclose(accs, accs[0], atol=1e-12)
    # communication scales: star <= polycentric <= complete graph
    ordered = [links[k] for k in result]
    assert ordered[0] <= ordered[1] <= ordered[2]
