import json

import numpy as np
import pytest

from scengen import InputError, KrausModel, load_model, save_model
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
        # a model holds finite entries only, so the json spellings of nan and
        # inf are checked on a model's payload with such entries put in
        rng = np.random.default_rng(3)
        model = random_kraus_model(rng, 2, 3, 2)
        ops = model.operators.copy()
        ops[0, 0] = [[0.5, 1.0], [-2.0, -0.0]]
        ops[1, 1, 0, 0] = complex(-0.0, 5e-324)
        ops[2, 0, 1, 1] = complex(1e308, -0.0)
        model = KrausModel(ops, model.initial_state)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_bytes()
        assert text == json_bytes(model)
        for token in (b"-0.0", b"5e-324", b"1e+308"):
            assert token in text
        payload = model.to_dict()
        payload["kraus_re"][0][0] = [[np.nan, np.inf], [-np.inf, -0.0]]
        payload["kraus_im"][2][0][1][1] = -np.nan
        text = "".join(_json_text(payload))
        assert text == json.dumps(payload, indent=2) + "\n"
        for token in ("NaN", "Infinity", "-Infinity", "-0.0"):
            assert token in text

    @pytest.mark.parametrize("payload", [
        {"a": []}, {"a": [[], []]}, {"a": [[[], []], [[], []]]},
        {"a": np.zeros((2, 0, 3)).tolist(), "b": np.zeros((0, 3)).tolist()},
        {"type": "x", "K": 1, "v": [[[[0.5]]]], "w": 1e-300, "s": "a, [b]"},
    ])
    def test_empty_lists_and_scalars(self, payload):
        assert "".join(_json_text(payload)) == json.dumps(payload, indent=2) + "\n"


class TestLoadModel:
    @pytest.mark.parametrize("kind, field, value", [
        ("hmm", "transition", np.nan), ("hmm", "emission", np.nan), ("hmm", "start", np.nan),
        ("hmm", "emission", np.inf), ("qhmm", "kraus_re", np.nan), ("qhmm", "pi0_re", np.nan),
        ("qhmm", "kraus_im", -np.inf), ("qhmm", "pi0_im", np.nan),
    ])
    def test_non_finite_parameters_are_malformed(self, tmp_path, kind, field, value):
        rng = np.random.default_rng(4)
        model = random_kraus_model(rng, 2, 3) if kind == "qhmm" else random_hmm(rng, 2, 3)
        payload = model.to_dict()
        entries = np.array(payload[field])
        entries.flat[0] = value
        payload[field] = entries.tolist()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="malformed model"):
            load_model(path)
