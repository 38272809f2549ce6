import json

import numpy as np
import pytest

from scengen import KrausModel, load_model, save_model
from scengen.serialization import _json_text

from oracles import random_hmm, random_kraus_model


def json_bytes(model):
    return (json.dumps(model.to_dict(), indent=2) + "\n").encode()


class TestSaveModel:
    @pytest.mark.parametrize("kind", ["qhmm", "hmm"])
    @pytest.mark.parametrize("dim, alphabet, mu", [(1, 2, 1), (2, 3, 2), (3, 8, 1),
                                                   (16, 8, 2)])
    def test_bytes_equal_json_dumps_with_an_indent(self, tmp_path, kind, dim, alphabet, mu):
        rng = np.random.default_rng(100 * dim + 10 * alphabet + mu)
        for seed in range(3):
            model = (random_kraus_model(rng, dim, alphabet, mu) if kind == "qhmm"
                     else random_hmm(rng, dim, alphabet))
            path = tmp_path / f"{seed}.json"
            save_model(model, path)
            assert path.read_bytes() == json_bytes(model)
            loaded = load_model(path)
            assert type(loaded) is type(model)
            for key, value in model.to_dict().items():
                assert loaded.to_dict()[key] == value

    def test_non_finite_and_signed_zero_entries(self, tmp_path):
        rng = np.random.default_rng(3)
        model = random_kraus_model(rng, 2, 3, 2)
        ops = model.operators.copy()
        ops[0, 0] = [[np.nan, np.inf], [-np.inf, -0.0]]
        ops[1, 1, 0, 0] = complex(-0.0, 5e-324)
        ops[2, 0, 1, 1] = complex(1e308, -np.nan)
        model = KrausModel(ops, model.initial_state)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_bytes()
        assert text == json_bytes(model)
        for token in (b"NaN", b"Infinity", b"-Infinity", b"-0.0", b"5e-324", b"1e+308"):
            assert token in text

    @pytest.mark.parametrize("payload", [
        {"a": []}, {"a": [[], []]}, {"a": [[[], []], [[], []]]},
        {"a": np.zeros((2, 0, 3)).tolist(), "b": np.zeros((0, 3)).tolist()},
        {"type": "x", "K": 1, "v": [[[[0.5]]]], "w": 1e-300, "s": "a, [b]"},
    ])
    def test_empty_lists_and_scalars(self, payload):
        assert "".join(_json_text(payload)) == json.dumps(payload, indent=2) + "\n"
