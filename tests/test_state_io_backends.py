"""State round trips across enumeration backends and edge shapes."""



from repro import DCDiscoverer, load_state, relation_from_rows, save_state
from repro.workloads import staff_relation


class TestDynHSBackendState:
    def test_roundtrip_rebootstraps_dynhs(self, tmp_path):
        discoverer = DCDiscoverer(staff_relation(), enumeration_backend="dynhs")
        discoverer.fit()
        path = tmp_path / "state.json"
        save_state(discoverer, path)
        loaded = load_state(path)
        assert loaded.enumeration_backend == "dynhs"
        assert loaded.dc_masks == discoverer.dc_masks
        loaded.insert([(5, "Ema", 2002, 3, 1)])
        discoverer.insert([(5, "Ema", 2002, 3, 1)])
        assert loaded.dc_masks == discoverer.dc_masks


class TestEdgeShapes:
    def test_single_row_state(self, tmp_path):
        relation = relation_from_rows(["A", "B"], [(1, "x")])
        discoverer = DCDiscoverer(relation, allow_cross_columns=False)
        discoverer.fit()
        assert discoverer.dc_masks == []
        path = tmp_path / "one.json"
        save_state(discoverer, path)
        loaded = load_state(path)
        loaded.insert([(2, "y"), (1, "x")])
        discoverer.insert([(2, "y"), (1, "x")])
        assert loaded.dc_masks == discoverer.dc_masks
        assert loaded.evidence_set == discoverer.evidence_set

    def test_no_tuple_index_state(self, tmp_path):
        discoverer = DCDiscoverer(staff_relation(), delete_strategy="recompute")
        discoverer.fit()
        path = tmp_path / "noindex.json"
        save_state(discoverer, path)
        loaded = load_state(path)
        assert loaded.engine_state.tuple_index is None
        loaded.delete([0])
        discoverer.delete([0])
        assert loaded.dc_masks == discoverer.dc_masks

    def test_state_with_monitor_not_serialized(self, tmp_path):
        """Monitors are session-local; state round trips without them."""
        discoverer = DCDiscoverer(staff_relation())
        discoverer.fit()
        discoverer.attach_approximate_monitor(0.1)
        path = tmp_path / "m.json"
        save_state(discoverer, path)
        loaded = load_state(path)
        loaded.insert([(5, "Ema", 2002, 3, 1)])  # no monitor, no error
        assert len(loaded.dcs) > 0
