import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from aerotext import models
from aerotext.corpus import LabeledRecord, OperatorClass, SplitDataset
from aerotext.training import EpochRecord


FIXTURE_CSV = """\
Operator,Summary
U.S. AIR FORCE,Engine caught fire during a routine training exercise over the base
Delta Air Lines,Hydraulic failure forced an emergency landing at the alternate airport
Private,Pilot lost directional control during landing rollout and exited the runway
American Airlines,Smoke detected in the cabin shortly after takeoff from the gate
U.S. Navy,Carrier approach waved off after arresting gear malfunction was reported
Private Owner,Fuel exhaustion led to a forced landing in a field short of the airport
United Airlines,Bird strike damaged the left engine on final approach to the runway
U.S. Army,Helicopter made a precautionary landing after chip light illuminated
Individual,Student pilot ground looped the tailwheel airplane during a crosswind landing
Southwest Airlines,Cabin pressurization issue prompted a rapid descent and diversion
Air National Guard,Tanker experienced a boom malfunction during refueling practice
Personal,Amateur built airplane suffered engine roughness and landed on a highway
FedEx,Cargo shifted in flight causing a center of gravity warning on departure
U.S. Marine Corps,Jet departed the prepared surface after landing long in wet conditions
Flying Club,Club airplane nosed over during a soft field landing practice session
"""


def random_params(config, rng):
    """Every parameter of `config` drawn uniformly in [-1, 1]: a random O(1)
    point, since at the Glorot/embedding init scales some true gradients
    fall below the reach of central differences."""
    return {spec.name: rng.uniform(-1.0, 1.0, spec.shape)
            for spec in models.parameter_table(config)}


def dense_grads(grads, params):
    """`loss_and_grads` gradients with a row-form gradient `(rows, values)`
    written out as the dense array it stands for: zero outside `rows`."""
    out = {}
    for name, grad in grads.items():
        if isinstance(grad, tuple):
            rows, values = grad
            grad = np.zeros(params[name].shape)
            grad[rows] = values
        out[name] = grad
    return out


def dense_loss_and_grads(config, params, *batch):
    """`models.loss_and_grads` with its gradients written out dense, the form
    `autodiff.gradient_check` compares coordinate by coordinate."""
    loss, grads = models.loss_and_grads(config, params, *batch)
    return loss, dense_grads(grads, params)


def history_from_csv(text: str) -> list[EpochRecord]:
    """The records of a `history.csv` text, the inverse of
    `training.history_to_csv`."""
    records = []
    for line in [ln for ln in text.splitlines() if ln.strip()][1:]:
        epoch, tl, ta, vl, va = line.split(",")
        records.append(EpochRecord(int(epoch), float(tl), float(ta), float(vl), float(va)))
    return records


def head_params(w1, b1, w2, b2):
    return {f"head.{name}": np.asarray(value, dtype=np.float64)
            for name, value in zip(("w1", "b1", "w2", "b2"), (w1, b1, w2, b2))}


# Checkpoint metadata faults: each edit maps the parsed JSON metadata to a bad
# one, or to the raw bytes that replace it.
METADATA_FAULTS = {
    "truncate-middle": lambda meta: dict(meta, truncate="middle"),
    "metadata-list": lambda meta: [meta],
    "stopwords-int": lambda meta: dict(meta, stopwords=5),
    "epoch-string": lambda meta: dict(meta, epoch="x"),
    "max-len-float": lambda meta: dict(meta, max_len=2.5),
    "deep-nesting": lambda meta: b"[" * 100_000,
}


def edit_checkpoint_metadata(blob: bytes, edit) -> bytes:
    """Rewrite the length-prefixed JSON metadata after the magic and version."""
    (length,) = struct.unpack_from("<Q", blob, 8)
    meta = edit(json.loads(blob[16:16 + length]))
    if not isinstance(meta, bytes):
        meta = json.dumps(meta).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(meta)) + meta + blob[16 + length:]


def synthetic_corpus(n_per_class: int = 20, extra_per_class: int = 2,
                     seed: int = 7, vocab_extra: int = 12,
                     doc_min: int = 4, doc_max: int = 9):
    """Keyword-separable 3-class corpus: every document carries its class
    keyword plus random filler tokens shared across classes."""
    rng = np.random.default_rng(seed)
    keywords = ["alpha", "bravo", "charlie"]
    filler = [f"word{i}" for i in range(vocab_extra)]

    def make_doc(cls: int) -> LabeledRecord:
        length = int(rng.integers(doc_min, doc_max + 1))
        tokens = [str(filler[int(rng.integers(len(filler)))]) for _ in range(length)]
        tokens.insert(int(rng.integers(len(tokens) + 1)), keywords[cls])
        return LabeledRecord(OperatorClass(cls), " ".join(tokens))

    train = [make_doc(c) for c in range(3) for _ in range(n_per_class)]
    validation = [make_doc(c) for c in range(3) for _ in range(extra_per_class)]
    test = [make_doc(c) for c in range(3) for _ in range(extra_per_class)]
    return SplitDataset(train, validation, test, seed)


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(FIXTURE_CSV, encoding="utf-8")
    return path
