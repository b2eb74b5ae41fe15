"""Named scenario matrices drawn from the workload models.

Each preset turns one workload family (dense LLM inference/training, MoE
expert parallelism, text-to-video DiT, the Table 3 operator suites) into a
:class:`~repro.sweep.matrix.ScenarioMatrix` whose GEMM shapes come from the
same model configurations the end-to-end benchmarks use, so a sweep covers
the shapes that actually occur in those workloads rather than an arbitrary
grid.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.comm.primitives import CollectiveKind
from repro.gpu.gemm import GemmShape
from repro.sweep.matrix import Platform, ScenarioMatrix
from repro.workloads.llm import LLAMA3_70B, ModelConfig
from repro.workloads.moe import MIXTRAL_8X7B, MoEConfig
from repro.workloads.shapes import operator_suite
from repro.workloads.t2v import STEP_VIDEO_T2V, DiTConfig

A800_NODE = Platform(device="a800", topology="a800-nvlink", gpus=4)
A800_NODE_8 = Platform(device="a800", topology="a800-nvlink", gpus=8)
RTX4090_NODE = Platform(device="rtx4090", topology="rtx4090-pcie", gpus=4)


def _row_parallel_shapes(model: ModelConfig, tokens: tuple[int, ...], tp: int) -> list[GemmShape]:
    """The row-parallel projections followed by a collective under TP."""
    shapes = []
    for t in tokens:
        shapes.append(GemmShape(m=t, n=model.hidden_size, k=model.hidden_size // tp))
        shapes.append(GemmShape(m=t, n=model.hidden_size, k=model.intermediate_size // tp))
    return shapes


def llm_inference_matrix(
    model: ModelConfig = LLAMA3_70B,
    tokens: tuple[int, ...] = (2048, 4096),
    tp: int = 4,
) -> ScenarioMatrix:
    """GEMM+AllReduce pairs of dense-LLM TP inference (attn-out, mlp-down)."""
    return ScenarioMatrix.build(
        name=f"llm-inference-{model.name.lower()}",
        workload="llm-inference",
        shapes=_row_parallel_shapes(model, tokens, tp),
        platforms=[Platform(device="a800", topology="a800-nvlink", gpus=tp)],
        collectives=["allreduce"],
    )


def llm_training_matrix(
    model: ModelConfig = LLAMA3_70B,
    tokens: tuple[int, ...] = (4096,),
    tp: int = 4,
) -> ScenarioMatrix:
    """GEMM+ReduceScatter pairs of TP training: forward row-parallel + wgrad."""
    shapes = _row_parallel_shapes(model, tokens, tp)
    for t in tokens:
        shapes.append(GemmShape(m=model.hidden_size, n=model.hidden_size // tp, k=t))
        shapes.append(GemmShape(m=model.intermediate_size // tp, n=model.hidden_size, k=t))
    return ScenarioMatrix.build(
        name=f"llm-training-{model.name.lower()}",
        workload="llm-training",
        shapes=shapes,
        platforms=[Platform(device="a800", topology="a800-nvlink", gpus=tp)],
        collectives=["reducescatter"],
    )


def moe_alltoall_matrix(
    model: MoEConfig = MIXTRAL_8X7B,
    tokens: tuple[int, ...] = (4096, 8192),
    ep: int = 4,
    imbalances: tuple[float, ...] = (1.0, 1.15, 1.3),
) -> ScenarioMatrix:
    """Expert down-projection + All-to-All under imbalanced routing."""
    shapes = [
        GemmShape(
            m=t * model.top_k // ep,
            n=model.hidden_size,
            k=model.expert_intermediate_size,
        )
        for t in tokens
    ]
    return ScenarioMatrix.build(
        name=f"moe-alltoall-{model.name.lower()}",
        workload="moe-alltoall",
        shapes=shapes,
        platforms=[Platform(device="a800", topology="a800-nvlink", gpus=ep)],
        collectives=["alltoall"],
        imbalances=imbalances,
    )


def t2v_matrix(
    config: DiTConfig = STEP_VIDEO_T2V,
    tokens: tuple[int, ...] = (20480, 30720),
    tp: int = 4,
) -> ScenarioMatrix:
    """Long-sequence DiT blocks: the largest GEMM+AR share of the paper."""
    return ScenarioMatrix.build(
        name=f"t2v-{config.name.lower()}",
        workload="t2v",
        shapes=_row_parallel_shapes(config.dense, tokens, tp),
        platforms=[Platform(device="a800", topology="a800-nvlink", gpus=tp)],
        collectives=["allreduce"],
    )


def table3_matrix(collective: str = "allreduce", device_family: str = "rtx4090") -> ScenarioMatrix:
    """Reduced grid over the Table 3 operator-level range for one pair."""
    kind = CollectiveKind.from_name(collective)
    suite = operator_suite(kind, device_family, mn_points=3, k_points=2)
    platform = RTX4090_NODE if device_family == "rtx4090" else A800_NODE
    return ScenarioMatrix.build(
        name=suite.name,
        workload=f"table3-{device_family}",
        shapes=list(suite),
        platforms=[platform],
        collectives=[collective],
    )


def serving_matrix(
    rate_rps: float = 32.0,
    model: ModelConfig = LLAMA3_70B,
    tp: int = 4,
    num_requests: int = 48,
    max_batch_tokens: int = 4096,
    max_batch_size: int = 32,
    distribution: str = "chat",
    seed: int = 0,
) -> ScenarioMatrix:
    """GEMM+AllReduce pairs that continuous batching produces at one arrival rate.

    A dry scheduler run over seeded Poisson traffic yields every iteration's
    batched token count; the distinct power-of-two buckets become the ``M``
    axis of the matrix (with the row-parallel N/K of the served model), so a
    sweep over ``serving-rate*`` presets grids the tuner over exactly the
    shapes online serving would request at those arrival rates.
    """
    from repro.serve import (
        PoissonArrivals,
        bucket_tokens,
        distribution_by_name,
        iteration_gemm_shapes,
        profile_iteration_tokens,
    )

    requests = PoissonArrivals(
        rate_rps=rate_rps,
        distribution=distribution_by_name(distribution),
        seed=seed,
        num_requests=num_requests,
    ).generate()
    tokens = profile_iteration_tokens(
        requests, max_batch_tokens=max_batch_tokens, max_batch_size=max_batch_size
    )
    buckets = sorted({bucket_tokens(t) for t in tokens})
    shapes = [shape for b in buckets for shape in iteration_gemm_shapes(b, model, tp)]
    return ScenarioMatrix.build(
        name=f"serving-rate{rate_rps:g}",
        workload=f"serving-rate{rate_rps:g}",
        shapes=shapes,
        platforms=[Platform(device="a800", topology="a800-nvlink", gpus=tp)],
        collectives=["allreduce"],
    )


def e2e_matrix(
    workload: str,
    tokens: tuple[int, ...],
    collective: str,
    tp: int | None = None,
    name: str | None = None,
) -> ScenarioMatrix:
    """Overlap-target shapes of an end-to-end workload across input sizes.

    Builds the registry workload (one layer) at every token count, collects
    the distinct GEMM shapes whose following collective matches
    ``collective``, and grids them on the workload's own platform -- so a
    sweep covers exactly the operators ``repro e2e`` estimates.  ``tp``
    overrides the tensor-parallel degree by rescaling the sharded dimension,
    which is how the ``e2e-*-tp*`` presets scan TP degrees.
    """
    from repro.workloads.e2e import build_workload

    kind = CollectiveKind.from_name(collective)
    shapes: list[GemmShape] = []
    imbalances: set[float] = set()
    gpus = None
    for t in tokens:
        built = build_workload(workload, tokens=t, layers=1)
        for op in built.operators:
            if op.problem is None or op.problem.collective is not kind:
                continue
            shape = op.problem.shape
            if tp is not None:
                # Rescale the TP-sharded accumulation depth to the target degree.
                native_tp = op.problem.n_gpus
                shape = GemmShape(m=shape.m, n=shape.n, k=max(1, shape.k * native_tp // tp))
            if shape not in shapes:
                shapes.append(shape)
            imbalances.add(round(op.problem.imbalance, 4))
            gpus = tp if tp is not None else op.problem.n_gpus
    if not shapes or gpus is None:
        raise ValueError(
            f"workload {workload!r} has no overlap target followed by {collective!r}"
        )
    return ScenarioMatrix.build(
        name=name or f"e2e-{workload}",
        workload=f"e2e-{workload}",
        shapes=shapes,
        platforms=[Platform(device="a800", topology="a800-nvlink", gpus=gpus)],
        collectives=[collective],
        imbalances=sorted(imbalances) or (1.0,),
    )


def smoke_matrix() -> ScenarioMatrix:
    """Small-but-wide matrix for CI and tests: 12 cheap scenarios.

    Shapes are tiny so one scenario costs milliseconds, yet the matrix still
    spans two platforms and two collectives (the axes CI wants covered).
    """
    return ScenarioMatrix.build(
        name="smoke",
        workload="smoke",
        shapes=[(512, 1024, 1024), (1024, 2048, 1024), (2048, 2048, 2048)],
        platforms=[RTX4090_NODE, A800_NODE],
        collectives=["allreduce", "reducescatter"],
    )


_PRESETS: dict[str, Callable[[], ScenarioMatrix]] = {
    "smoke": smoke_matrix,
    "llm-inference": llm_inference_matrix,
    "llm-training": llm_training_matrix,
    "moe-alltoall": moe_alltoall_matrix,
    "t2v": t2v_matrix,
    "table3-ar-rtx4090": lambda: table3_matrix("allreduce", "rtx4090"),
    "table3-rs-a800": lambda: table3_matrix("reducescatter", "a800"),
    "table3-a2a-a800": lambda: table3_matrix("alltoall", "a800"),
    # Serving traffic at increasing arrival rates: sweep several presets
    # together (``--preset serving-rate8 --preset serving-rate32 ...``) to
    # grid the tuner over the shapes online serving produces under load.
    "serving-rate8": lambda: serving_matrix(rate_rps=8.0),
    "serving-rate32": lambda: serving_matrix(rate_rps=32.0),
    "serving-rate128": lambda: serving_matrix(rate_rps=128.0),
    # End-to-end workload scans: the exact overlap-target shapes `repro e2e`
    # estimates, gridded over chunk sizes (``-chunks``) or tensor-parallel
    # degrees (``-tp*``); sweep several presets together to scan both.
    "e2e-llama3-chunks": lambda: e2e_matrix(
        "llama3-inference", tokens=(4096, 8192, 16384), collective="allreduce",
        name="e2e-llama3-chunks"),
    "e2e-llama3-tp2": lambda: e2e_matrix(
        "llama3-inference", tokens=(16384,), collective="allreduce", tp=2,
        name="e2e-llama3-tp2"),
    "e2e-llama3-tp4": lambda: e2e_matrix(
        "llama3-inference", tokens=(16384,), collective="allreduce", tp=4,
        name="e2e-llama3-tp4"),
    "e2e-llama3-tp8": lambda: e2e_matrix(
        "llama3-inference", tokens=(16384,), collective="allreduce", tp=8,
        name="e2e-llama3-tp8"),
    "e2e-mixtral-a2a": lambda: e2e_matrix(
        "mixtral-training", tokens=(16384, 32768), collective="alltoall",
        name="e2e-mixtral-a2a"),
    "e2e-step-video-chunks": lambda: e2e_matrix(
        "step-video", tokens=(16896, 33792), collective="allreduce",
        name="e2e-step-video-chunks"),
    # Pipeline-parallel scans: `repro pp` splits the paper input into
    # microbatches, so the microbatch count is the axis that changes the
    # tuned GEMM shapes (stage count and schedule choice re-price the same
    # shapes and share plans).  Each preset grids the overlap targets at the
    # microbatch token counts of M in {2, 4, 8} (llama3 trains on 16384
    # tokens, mixtral on 32768), warming the shape cache for pp runs across
    # any stage count x microbatch count x schedule combination.
    "pp-llama3-microbatches": lambda: e2e_matrix(
        "llama3-training", tokens=(2048, 4096, 8192), collective="reducescatter",
        name="pp-llama3-microbatches"),
    "pp-mixtral-microbatches": lambda: e2e_matrix(
        "mixtral-training", tokens=(4096, 8192, 16384), collective="alltoall",
        name="pp-mixtral-microbatches"),
    "pp-step-video-microbatches": lambda: e2e_matrix(
        "step-video", tokens=(4224, 8448, 16896), collective="allreduce",
        name="pp-step-video-microbatches"),
}


def sweep_presets() -> dict[str, Callable[[], ScenarioMatrix]]:
    """The named preset registry (name -> matrix factory)."""
    return dict(_PRESETS)


def matrix_from_preset(name: str) -> ScenarioMatrix:
    """Instantiate a named preset matrix."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown sweep preset {name!r}; known: {sorted(_PRESETS)}") from None
    return factory()
