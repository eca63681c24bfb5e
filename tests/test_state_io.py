"""Tests for state serialization: the 'intermediates' of Figure 2."""

import json
import random

import pytest

from repro import (
    DCDiscoverer,
    StateFormatError,
    StateVersionError,
    load_state,
    relation_from_rows,
    save_state,
)
from repro.core.state_io import (
    FORMAT_VERSION,
    state_from_dict,
    state_to_bytes,
    state_to_dict,
)
from repro.durability import SimulatedCrash
from tests.conftest import random_rows


@pytest.fixture
def fitted(staff):
    discoverer = DCDiscoverer(staff)
    discoverer.fit()
    return discoverer


class TestRoundTrip:
    def test_equal_after_roundtrip(self, fitted, tmp_path):
        path = tmp_path / "state.json"
        save_state(fitted, path)
        loaded = load_state(path)
        assert loaded.dc_masks == fitted.dc_masks
        assert loaded.evidence_set == fitted.evidence_set
        assert len(loaded.relation) == len(fitted.relation)
        assert loaded.relation.schema == fitted.relation.schema

    def test_maintenance_continues_identically(self, fitted, tmp_path):
        path = tmp_path / "state.json"
        fitted.insert([(5, "Ema", 2002, 3, 1)])
        save_state(fitted, path)
        loaded = load_state(path)
        for discoverer in (fitted, loaded):
            discoverer.insert([(6, "Bo", 2003, 1, 2)])
            discoverer.delete([2])
        assert loaded.dc_masks == fitted.dc_masks
        assert loaded.evidence_set == fitted.evidence_set

    def test_roundtrip_preserves_dead_rids(self, fitted, tmp_path):
        fitted.delete([1])
        path = tmp_path / "state.json"
        save_state(fitted, path)
        loaded = load_state(path)
        assert not loaded.relation.is_alive(1)
        assert loaded.relation.next_rid == fitted.relation.next_rid
        # New inserts get the same rids on both sides.
        assert loaded.insert([(7, "Cy", 2004, 2, 1)]).rids == fitted.insert(
            [(7, "Cy", 2004, 2, 1)]
        ).rids

    def test_tuple_index_survives(self, staff, tmp_path):
        fitted = DCDiscoverer(staff, delete_strategy="index")
        fitted.fit()
        path = tmp_path / "state.json"
        save_state(fitted, path)
        loaded = load_state(path)
        # Both must support the index-based delete strategy afterwards.
        fitted.delete([0])
        loaded.delete([0])
        assert loaded.evidence_set == fitted.evidence_set

    def test_float_columns_roundtrip(self, tmp_path):
        relation = relation_from_rows(["F", "S"], [(1.5, "a"), (2.0, "b"), (3.5, "a")])
        discoverer = DCDiscoverer(relation)
        discoverer.fit()
        path = tmp_path / "state.json"
        save_state(discoverer, path)
        loaded = load_state(path)
        # json turns 2.0 into 2; the loader must coerce back to float.
        assert loaded.evidence_set == discoverer.evidence_set
        loaded.insert([(2.5, "c")])
        discoverer.insert([(2.5, "c")])
        assert loaded.dc_masks == discoverer.dc_masks

    def test_random_relation_roundtrip(self, tmp_path):
        rng = random.Random(4)
        relation = relation_from_rows(["A", "B", "C"], random_rows(rng, 18))
        discoverer = DCDiscoverer(relation, delete_strategy="recompute")
        discoverer.fit()
        discoverer.delete(rng.sample(list(relation.rids()), 5))
        path = tmp_path / "state.json"
        save_state(discoverer, path)
        loaded = load_state(path)
        batch = random_rows(rng, 4)
        discoverer.insert(batch)
        loaded.insert(batch)
        assert loaded.dc_masks == discoverer.dc_masks


class TestFormatValidation:
    def test_unfitted_rejected(self, staff):
        with pytest.raises(RuntimeError, match="unfitted"):
            state_to_dict(DCDiscoverer(staff))

    def test_wrong_format_rejected(self, fitted):
        payload = state_to_dict(fitted)
        payload["format"] = "something-else"
        with pytest.raises(ValueError, match="not a 3dc-state"):
            state_from_dict(payload)

    def test_wrong_version_rejected(self, fitted):
        payload = state_to_dict(fitted)
        payload["version"] = 999
        with pytest.raises(ValueError, match="unsupported"):
            state_from_dict(payload)

    @pytest.mark.parametrize(
        "version", [FORMAT_VERSION - 1, FORMAT_VERSION + 1, None, "1"]
    )
    def test_version_mismatch_both_directions(self, fitted, version):
        """Both an older and a newer (or missing/mistyped) version raise
        the dedicated error, which names the found and supported values."""
        payload = state_to_dict(fitted)
        payload["version"] = version
        with pytest.raises(StateVersionError) as excinfo:
            state_from_dict(payload)
        assert excinfo.value.found == version
        assert excinfo.value.supported == FORMAT_VERSION
        assert str(FORMAT_VERSION) in str(excinfo.value)

    def test_foreign_json_raises_format_error_not_keyerror(self, tmp_path):
        """A structurally foreign JSON document must fail with a clear
        StateFormatError, never an opaque KeyError."""
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"rows": [1, 2, 3]}))
        with pytest.raises(StateFormatError, match="not a 3dc-state"):
            load_state(path)

    def test_truncated_fields_raise_format_error(self, fitted):
        payload = state_to_dict(fitted)
        del payload["evidence"]
        del payload["sigma"]
        with pytest.raises(StateFormatError, match="evidence, sigma"):
            state_from_dict(payload)

    def test_non_json_file_raises_format_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_bytes(b"\x00\x01 not json")
        with pytest.raises(StateFormatError, match="not valid JSON"):
            load_state(path)

    def test_errors_are_valueerrors(self):
        # Callers that caught ValueError before the dedicated classes
        # existed keep working.
        assert issubclass(StateFormatError, ValueError)
        assert issubclass(StateVersionError, ValueError)

    def test_unknown_config_key_raises_format_error(self, fitted):
        payload = state_to_dict(fitted)
        payload["config"]["shiny_new_knob"] = True
        with pytest.raises(StateFormatError, match="shiny_new_knob"):
            state_from_dict(payload)

    def test_payload_is_json_serializable(self, fitted):
        json.dumps(state_to_dict(fitted))

    def test_config_preserved(self, staff, tmp_path):
        discoverer = DCDiscoverer(
            staff,
            cross_column_ratio=0.5,
            delete_strategy="index",
            infer_within_delta=False,
        )
        discoverer.fit()
        path = tmp_path / "state.json"
        save_state(discoverer, path)
        loaded = load_state(path)
        assert loaded.cross_column_ratio == 0.5
        assert loaded.delete_strategy == "index"
        assert loaded.infer_within_delta is False


class TestAtomicSave:
    """Regression: save_state used to truncate-write in place, so a crash
    mid-save destroyed the previous state.  It now routes through the
    atomic temp+fsync+rename writer — a simulated failure at any instant
    of the save leaves the previous file byte-intact."""

    @pytest.mark.parametrize(
        "point", ["state_save.pre_fsync", "state_save.pre_rename"]
    )
    def test_failed_save_keeps_previous_state(
        self, fitted, tmp_path, fault_injector, point
    ):
        path = tmp_path / "state.json"
        save_state(fitted, path)
        before = path.read_bytes()
        fitted.insert([(5, "Ema", 2002, 3, 1)])
        with fault_injector.armed(point):
            with pytest.raises(SimulatedCrash):
                save_state(fitted, path)
        assert path.read_bytes() == before
        # The survivor is a fully loadable state, not a torn hybrid.
        assert load_state(path).dc_masks

    def test_save_after_rename_is_the_new_state(
        self, fitted, tmp_path, fault_injector
    ):
        path = tmp_path / "state.json"
        save_state(fitted, path)
        fitted.insert([(5, "Ema", 2002, 3, 1)])
        with fault_injector.armed("state_save.post_rename"):
            with pytest.raises(SimulatedCrash):
                save_state(fitted, path)
        assert path.read_bytes() == state_to_bytes(fitted)

    def test_no_temp_residue_after_successful_save(self, fitted, tmp_path):
        path = tmp_path / "state.json"
        save_state(fitted, path)
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_saved_bytes_are_canonical(self, fitted, tmp_path):
        path = tmp_path / "state.json"
        save_state(fitted, path)
        assert path.read_bytes() == state_to_bytes(fitted)


class TestStaleIndexAcrossRoundTrip:
    """Regression: the tuple index's lazy corrections must be settled at
    save time — dead rows reload as placeholders, so a post-load delete
    would otherwise subtract wrong evidence (found via the
    session_persistence example)."""

    def test_delete_after_roundtrip_with_dead_partners(self, tmp_path):
        import random

        from repro.evidence import naive_evidence_set

        rng = random.Random(0)
        relation = relation_from_rows(["A", "B", "C"], random_rows(rng, 16))
        discoverer = DCDiscoverer(relation, delete_strategy="index")
        discoverer.fit()
        discoverer.delete([1, 4, 7])  # leaves stale partner bits behind
        path = tmp_path / "stale.json"
        save_state(discoverer, path)
        loaded = load_state(path)
        loaded.delete([0, 2])  # owners of pairs with the dead rows
        discoverer.delete([0, 2])
        assert loaded.evidence_set == discoverer.evidence_set
        assert loaded.evidence_set == naive_evidence_set(
            loaded.relation, loaded.space
        )
        assert loaded.dc_masks == discoverer.dc_masks

    def test_earlier_recompute_state_loads_without_its_index(self, tmp_path):
        """States written while the index had its own config key carry
        ``maintain_tuple_index`` and, under "recompute", an index whose
        dead rows' entries no delete pruned.  Such a state loads without
        the index, keeps maintaining, and saves."""
        from repro.evidence import naive_evidence_set

        rng = random.Random(0)
        relation = relation_from_rows(["A", "B", "C"], random_rows(rng, 16))
        # Those states came from a discoverer that kept the index but
        # deleted by recompute.
        earlier = DCDiscoverer(relation, delete_strategy="index")
        earlier.fit()
        earlier.delete_strategy = "recompute"
        earlier.delete([1, 4, 7])
        payload = state_to_dict(earlier)
        payload["config"]["maintain_tuple_index"] = True
        assert payload["tuple_index"]["owned"].keys() >= {"1", "4", "7"}

        loaded = state_from_dict(payload)
        assert loaded.engine_state.tuple_index is None
        loaded.delete([2, 5])  # partners of the dead owners
        path = tmp_path / "earlier.json"
        save_state(loaded, path)
        assert load_state(path).evidence_set == naive_evidence_set(
            loaded.relation, loaded.space
        )

    def test_repeated_sessions_with_mixed_updates(self, tmp_path):
        import random

        from repro.evidence import naive_evidence_set

        rng = random.Random(1)
        relation = relation_from_rows(["A", "B", "C"], random_rows(rng, 14))
        discoverer = DCDiscoverer(relation, delete_strategy="index")
        discoverer.fit()
        path = tmp_path / "sessions.json"
        for _ in range(3):
            discoverer.insert(random_rows(rng, 4))
            alive = list(discoverer.relation.rids())
            discoverer.delete(rng.sample(alive, 3))
            save_state(discoverer, path)
            discoverer = load_state(path)
        assert discoverer.evidence_set == naive_evidence_set(
            discoverer.relation, discoverer.space
        )
