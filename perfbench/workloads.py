"""The benchmark's named workloads and the inputs each one is run on.

A workload seed picks one of VARIANTS audio variants (seed % VARIANTS), so
every seed maps onto inputs whose transcripts are pinned in digests.json.
Model weights use the fixed WEIGHTS_SEED: RNNT decode cost follows the
number of emissions, which depends on the random weights by about +-10%,
so varying weights with the seed would turn seed choice into RTF spread.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = 8
WEIGHTS_SEED = 1
WARMUP_SECONDS = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple[str, ...]
    decoder: str
    durations: tuple[float, ...]  # one manifest, shared by every preset
    weights_files: bool  # load the model from an LFWB file (gen-weights)
    why: str

    @property
    def audio_seconds(self) -> float:
        """Audio transcribed by one round: every preset over the manifest."""
        return len(self.presets) * sum(self.durations)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ctc-longform",
            presets=("toy-quartznet2", "toy-contextnet", "toy-citrinet",
                     "toy-fastconformer-gt"),
            decoder="ctc",
            durations=(120.0, 600.0),
            weights_files=False,
            why="long utterances with CTC: the front end and small-shape "
                "conv1d do the work, activations set the heap peak",
        ),
        Workload(
            name="rnnt-longform",
            presets=("toy-fastconformer", "toy-fastconformer-gt"),
            decoder="rnnt",
            # 2 s and 3 s stay inside the 3.2 s toy LCA chunk (dense band
            # path); 60 s and 240 s take the chunked path
            durations=(2.0, 3.0, 60.0, 240.0),
            weights_files=False,
            why="RNNT greedy decoding is most of the pass; dense and chunked "
                "attention paths both run",
        ),
        Workload(
            name="table2-encode",
            presets=("table2-quartznet2", "table2-contextnet",
                     "table2-conformer", "table2-fastconformer"),
            decoder="ctc",
            durations=(30.0,),
            weights_files=True,
            why="the paper's Table 2 shapes from weights files: wide conv1d, "
                "linear_rows and full attention; weights set memory",
        ),
    )
}


def variant(seed: int) -> int:
    return seed % VARIANTS


def audio_seed(workload: str, v: int, index: int) -> int:
    """Seed of utterance `index` of variant v; distinct across workloads."""
    return (list(WORKLOADS).index(workload) * VARIANTS + v) * 100 + index


def transcribe_argv(wl: Workload, preset: str, manifest: str, weights) -> list[str]:
    """The `lfab transcribe` arguments of one preset's call."""
    argv = ["transcribe", "--config", preset, "--manifest", manifest,
            "--decoder", wl.decoder, "--seed", str(WEIGHTS_SEED)]
    if weights is not None:
        argv += ["--weights", weights]
    return argv
