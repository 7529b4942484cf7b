import dataclasses
import json

import numpy as np
import pytest

from isofield import (
    ModelFormatError,
    PureSpatial,
    SeparableScalar,
    SeriesModel,
    TailEnvelope,
    VectorMA1,
    dump_model,
    load_model,
    model_from_dict,
    model_hash,
    model_to_dict,
    parse_space,
    save_model,
)
from isofield.spectral import INTEGER_LAGS, REAL_LAGS, ZERO_LAG
from tests.oracles import random_psd

S2 = parse_space("sphere:2")


def example_models():
    rng = np.random.default_rng(0)
    coeffs = [random_psd(rng, 2) for _ in range(3)]
    yield SeriesModel(S2, 2, coeffs)
    yield SeriesModel(parse_space("projC:4"), 2, coeffs, tail=TailEnvelope(0.8, 0.5))
    yield SeriesModel(S2, 2, coeffs, PureSpatial())
    yield SeriesModel(S2, 2, coeffs, SeparableScalar("ar1", -0.35))
    yield SeriesModel(S2, 2, coeffs, SeparableScalar("exponential", 2.5))
    yield SeriesModel(S2, 2, coeffs, VectorMA1(0.4 * rng.standard_normal((2, 2))))


def model_id(model):
    return f"{model.domain}-{model.kernel.kind}"


class TestRoundTrip:
    @pytest.mark.parametrize("model", list(example_models()), ids=model_id)
    def test_dict_round_trip(self, model):
        doc = model_to_dict(model)
        back = model_from_dict(json.loads(json.dumps(doc)))
        assert model_to_dict(back) == doc
        assert (back.domain, back.kernel.kind) == (model.domain, model.kernel.kind)
        for a, b in zip(model.coeffs, back.coeffs):
            assert np.array_equal(a, b)
        assert back.space.label == model.space.label

    @pytest.mark.parametrize("model", list(example_models()), ids=model_id)
    def test_coefficient_stack_and_degree_slices(self, model):
        built = dataclasses.replace(model, coeffs=model.coeffs.tolist())
        assert built.coeffs.dtype == np.float64 and built.coeffs.shape == (3, 2, 2)
        lags = {ZERO_LAG: [0.0], INTEGER_LAGS: [-2.0, -1.0, 0.0, 1.0, 2.0],
                REAL_LAGS: [-1.5, 0.0, 0.25, 2.0]}[built.domain]
        for t in lags:
            stack = np.array([built.coeff_at(n, t) for n in range(built.max_degree + 1)])
            assert np.array_equal(built.coeff_at(slice(None), t), stack)
            assert np.array_equal(built.coeff_at(slice(1, None), t), stack[1:])

    def test_file_round_trip(self, tmp_path):
        model = next(iter(example_models()))
        path = save_model(model, tmp_path / "model.json")
        again = load_model(path)
        assert dump_model(again) == dump_model(model)

    def test_hash_stable_under_round_trip(self):
        for model in example_models():
            again = model_from_dict(model_to_dict(model))
            assert model_hash(again) == model_hash(model)

    def test_hash_is_pinned(self):
        # every sidecar records model_hash, so the file form of each model must not move
        pinned = [
            "4d5be538340d4b6475f9bf15fa480a8c00b8a4f56ee53cdf8c3cb219667a2086",
            "e5d8fe66329eaa3185536d3f008209cee6053674bfb27f6bd01bfa37f7cff9f2",
            "6f00efcce578bfddcebe6adc70e5658eac02e12d07702fbead42e07276f9cb3e",
            "39dc6896ab20822277b0a69ede2bb6061b5e87354e76ec52d8e5ccfd1cc2343e",
            "84e6f4a22990f1a8b971d66dc0614f1ecdae9f67a0b2ea72581fb2a75acc11b7",
            "80a8f946e9b7fcfb75ce5dad69dfab5a4b5cb1375f01887df1ee8d2b30f60004",
        ]
        assert [model_hash(model) for model in example_models()] == pinned

    def test_hash_distinguishes_models(self):
        rng = np.random.default_rng(1)
        a = SeriesModel(S2, 1, [np.eye(1)])
        b = SeriesModel(S2, 1, [1.0000001 * np.eye(1)])
        assert model_hash(a) != model_hash(b)

    def test_kernel_parameters_survive(self):
        model = SeriesModel(S2, 1, [np.eye(1)], SeparableScalar("ar1", 0.25))
        back = model_from_dict(model_to_dict(model))
        assert back.kernel.kind == "ar1" and back.kernel.param == 0.25
        ma = SeriesModel(S2, 2, [np.eye(2)], VectorMA1(np.array([[0.1, 0.2], [0.3, 0.4]])))
        back = model_from_dict(model_to_dict(ma))
        assert np.array_equal(back.kernel.phi, ma.kernel.phi)


class TestSchemaErrors:
    def base_doc(self):
        return {
            "space": "sphere:2",
            "m": 2,
            "coeffs": [[[1.0, 0.0], [0.0, 1.0]]],
        }

    def test_missing_fields(self):
        for key in ("space", "m", "coeffs"):
            doc = self.base_doc()
            del doc[key]
            with pytest.raises(ModelFormatError):
                model_from_dict(doc)

    def test_ragged_matrix_row(self):
        doc = self.base_doc()
        doc["coeffs"] = [[[1.0, 0.0], [0.0]]]
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_non_numeric_entry(self):
        doc = self.base_doc()
        doc["coeffs"] = [[[1.0, "x"], [0.0, 1.0]]]
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_bad_space(self):
        doc = self.base_doc()
        doc["space"] = "moebius:2"
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    @pytest.mark.parametrize("space", [2, None, ["sphere:2"]])
    def test_space_must_be_a_string(self, space):
        doc = self.base_doc()
        doc["space"] = space
        with pytest.raises(ModelFormatError,
                           match="^space must be a string 'family:dimension', such as 'sphere:2'$"):
            model_from_dict(doc)

    @pytest.mark.parametrize("fragment, message", [
        ({"coeffs": [[[1.0, 0.0], [0.0, "HUGE"]]]},
         "coefficient 0 has an integer entry too large for a float"),
        ({"temporal": {"variant": "ma1", "phi": [["-HUGE", 0.0], [0.0, 0.5]]}},
         "ma1 phi has an integer entry too large for a float"),
        ({"tail": {"c": "HUGE", "r": 0.5}}, "bad tail envelope: "),
        ({"temporal": {"variant": "ar1", "phi": "HUGE"}}, "bad temporal kernel: "),
    ], ids=["coeffs", "ma1_phi", "tail", "ar1_phi"])
    def test_integer_too_large_for_a_float_names_the_field(self, tmp_path, fragment, message):
        # JSON integers have no size limit: 10**400 overflowed float() outside any check
        text = json.dumps({**self.base_doc(), **fragment})
        text = text.replace('"-HUGE"', "-1" + "0" * 400).replace('"HUGE"', "1" + "0" * 400)
        path = tmp_path / "huge.json"
        path.write_text(text)
        with pytest.raises(ModelFormatError, match=f"^{message}"):
            load_model(path)

    def test_space_above_the_dimension_cap(self, tmp_path):
        doc = self.base_doc()
        doc["space"] = "sphere:99999999"
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="bad space field: .*exceeds the cap of 1000"):
            load_model(path)

    def test_bad_m(self):
        doc = self.base_doc()
        doc["m"] = 0
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_bad_tail(self):
        doc = self.base_doc()
        doc["tail"] = {"c": 1.0, "r": 1.5}
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_unknown_variant(self):
        doc = self.base_doc()
        doc["temporal"] = {"variant": "garch"}
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_variant_missing_parameter(self):
        doc = self.base_doc()
        doc["temporal"] = {"variant": "ar1"}
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)
