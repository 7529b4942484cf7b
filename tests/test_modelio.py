import dataclasses
import json

import numpy as np
import pytest

from isofield import (
    ModelFormatError,
    PureSpatial,
    SeparableScalar,
    SpatialModel,
    SpatioTemporalModel,
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
    yield SpatialModel(S2, 2, coeffs)
    yield SpatialModel(parse_space("projC:4"), 2, coeffs, tail=TailEnvelope(0.8, 0.5))
    yield SpatioTemporalModel(S2, 2, coeffs, PureSpatial())
    yield SpatioTemporalModel(S2, 2, coeffs, SeparableScalar("ar1", -0.35))
    yield SpatioTemporalModel(S2, 2, coeffs, SeparableScalar("exponential", 2.5))
    yield SpatioTemporalModel(S2, 2, coeffs, VectorMA1(0.4 * rng.standard_normal((2, 2))))


class TestRoundTrip:
    @pytest.mark.parametrize("model", list(example_models()), ids=lambda m: type(m).__name__)
    def test_dict_round_trip(self, model):
        doc = model_to_dict(model)
        back = model_from_dict(json.loads(json.dumps(doc)))
        assert model_to_dict(back) == doc
        assert type(back) is type(model)
        for a, b in zip(model.coeffs, back.coeffs):
            assert np.array_equal(a, b)
        assert back.space.label == model.space.label

    @pytest.mark.parametrize("model", list(example_models()), ids=lambda m: type(m).__name__)
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

    def test_hash_distinguishes_models(self):
        rng = np.random.default_rng(1)
        a = SpatialModel(S2, 1, [np.eye(1)])
        b = SpatialModel(S2, 1, [1.0000001 * np.eye(1)])
        assert model_hash(a) != model_hash(b)

    def test_kernel_parameters_survive(self):
        model = SpatioTemporalModel(S2, 1, [np.eye(1)], SeparableScalar("ar1", 0.25))
        back = model_from_dict(model_to_dict(model))
        assert back.kernel.kind == "ar1" and back.kernel.param == 0.25
        ma = SpatioTemporalModel(S2, 2, [np.eye(2)], VectorMA1(np.array([[0.1, 0.2], [0.3, 0.4]])))
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
