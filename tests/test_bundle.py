"""Tests for bundle save/load: the deployment round-trip."""

import json

import pytest

from repro.bundle import load_bundle, save_bundle
from repro.core import GAnswer
from repro.datasets import build_dbpedia_mini, build_phrase_dataset
from repro.exceptions import ReproError
from repro.paraphrase import ParaphraseMiner
from repro.paraphrase.miner import normalize_phrase


@pytest.fixture(scope="module")
def setup():
    kg = build_dbpedia_mini()
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(
        build_phrase_dataset()
    )
    return kg, dictionary


class TestBundleRoundTrip:
    def test_files_created(self, setup, tmp_path):
        kg, dictionary = setup
        bundle_dir = save_bundle(tmp_path / "bundle", kg, dictionary)
        assert (bundle_dir / "graph.nt").exists()
        assert (bundle_dir / "dictionary.json").exists()
        assert (bundle_dir / "manifest.json").exists()

    def test_loaded_setup_answers_identically(self, setup, tmp_path):
        kg, dictionary = setup
        save_bundle(tmp_path / "bundle", kg, dictionary)
        loaded_kg, loaded_dictionary = load_bundle(tmp_path / "bundle")

        question = "Who was married to an actor that played in Philadelphia?"
        original = GAnswer(kg, dictionary).answer(question)
        restored = GAnswer(loaded_kg, loaded_dictionary).answer(question)
        assert [str(a) for a in restored.answers] == [
            str(a) for a in original.answers
        ]

    def test_paths_rebound_not_copied(self, setup, tmp_path):
        """The loaded store assigns different term ids; the dictionary's
        paths must still name the same predicates."""
        kg, dictionary = setup
        save_bundle(tmp_path / "bundle", kg, dictionary)
        loaded_kg, loaded_dictionary = load_bundle(tmp_path / "bundle")
        from repro.rdf.graph import step_predicate

        key = normalize_phrase("was married to")
        original_iri = kg.iri_of(step_predicate(dictionary.lookup(key)[0].path[0]))
        loaded_iri = loaded_kg.iri_of(
            step_predicate(loaded_dictionary.lookup(key)[0].path[0])
        )
        assert original_iri == loaded_iri

    def test_multi_hop_paths_survive(self, setup, tmp_path):
        kg, dictionary = setup
        save_bundle(tmp_path / "bundle", kg, dictionary)
        loaded_kg, loaded_dictionary = load_bundle(tmp_path / "bundle")
        key = normalize_phrase("player in")
        lengths = {m.length for m in loaded_dictionary.lookup(key)}
        assert 2 in lengths  # the (team, league) path

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            load_bundle(tmp_path)

    def test_version_mismatch_rejected(self, setup, tmp_path):
        kg, dictionary = setup
        bundle_dir = save_bundle(tmp_path / "bundle", kg, dictionary)
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        manifest["format_version"] = 99
        (bundle_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ReproError):
            load_bundle(bundle_dir)

    def test_truncated_graph_rejected(self, setup, tmp_path):
        kg, dictionary = setup
        bundle_dir = save_bundle(tmp_path / "bundle", kg, dictionary)
        graph_path = bundle_dir / "graph.nt"
        lines = graph_path.read_text().splitlines()
        graph_path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(ReproError):
            load_bundle(bundle_dir)

    def test_truncated_dictionary_rejected(self, setup, tmp_path):
        """The manifest's phrase count guards dictionary.json the same way
        the triple count guards graph.nt (it used to go unchecked: a
        truncated dictionary silently loaded with fewer phrases)."""
        kg, dictionary = setup
        bundle_dir = save_bundle(tmp_path / "bundle", kg, dictionary)
        dictionary_path = bundle_dir / "dictionary.json"
        payload = json.loads(dictionary_path.read_text())
        for phrase in sorted(payload)[: len(payload) // 2]:
            del payload[phrase]
        dictionary_path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="phrases"):
            load_bundle(bundle_dir)

    def test_corrupt_dictionary_json_rejected(self, setup, tmp_path):
        kg, dictionary = setup
        bundle_dir = save_bundle(tmp_path / "bundle", kg, dictionary)
        dictionary_path = bundle_dir / "dictionary.json"
        dictionary_path.write_text(dictionary_path.read_text()[:-40])
        with pytest.raises(ReproError, match="truncated or corrupt"):
            load_bundle(bundle_dir)

    def test_v1_manifest_still_loads(self, setup, tmp_path):
        """Bundles written before the snapshot era carry format_version 1
        and no snapshot member; they must keep loading via the text path."""
        kg, dictionary = setup
        bundle_dir = save_bundle(tmp_path / "bundle", kg, dictionary)
        manifest_path = bundle_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest.pop("snapshot", None)
        manifest_path.write_text(json.dumps(manifest))
        loaded_kg, loaded_dictionary = load_bundle(bundle_dir)
        assert len(loaded_kg.store) == len(kg.store)
        assert len(loaded_dictionary) == len(dictionary)


class TestSnapshotBundle:
    def test_snapshot_member_written(self, setup, tmp_path):
        kg, dictionary = setup
        bundle_dir = save_bundle(
            tmp_path / "bundle", kg, dictionary, include_snapshot=True
        )
        assert (bundle_dir / "graph.snap").exists()
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        assert manifest["snapshot"] == "graph.snap"
        assert manifest["format_version"] == 2

    def test_snapshot_load_preserves_term_ids(self, setup, tmp_path):
        kg, dictionary = setup
        bundle_dir = save_bundle(
            tmp_path / "bundle", kg, dictionary, include_snapshot=True
        )
        loaded_kg, loaded_dictionary = load_bundle(bundle_dir)
        # The snapshot path freezes ids; the text path re-assigns them.
        assert (
            loaded_kg.store.dictionary.terms_in_id_order()
            == kg.store.dictionary.terms_in_id_order()
        )
        assert len(loaded_dictionary) == len(dictionary)

    def test_snapshot_answers_match_text_path(self, setup, tmp_path):
        kg, dictionary = setup
        bundle_dir = save_bundle(
            tmp_path / "bundle", kg, dictionary, include_snapshot=True
        )
        snap_kg, snap_dictionary = load_bundle(bundle_dir)
        (bundle_dir / "graph.snap").unlink()  # the text members are all that is left
        text_kg, text_dictionary = load_bundle(bundle_dir)
        question = "Who was married to an actor that played in Philadelphia?"
        from_snapshot = GAnswer(snap_kg, snap_dictionary).answer(question)
        from_text = GAnswer(text_kg, text_dictionary).answer(question)
        assert [str(a) for a in from_snapshot.answers] == [
            str(a) for a in from_text.answers
        ]

    def test_missing_snapshot_falls_back_to_text(self, setup, tmp_path):
        kg, dictionary = setup
        bundle_dir = save_bundle(
            tmp_path / "bundle", kg, dictionary, include_snapshot=True
        )
        (bundle_dir / "graph.snap").unlink()
        loaded_kg, _ = load_bundle(bundle_dir)
        assert len(loaded_kg.store) == len(kg.store)

    def test_corrupt_snapshot_rejected(self, setup, tmp_path):
        kg, dictionary = setup
        bundle_dir = save_bundle(
            tmp_path / "bundle", kg, dictionary, include_snapshot=True
        )
        snap_path = bundle_dir / "graph.snap"
        raw = bytearray(snap_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        snap_path.write_bytes(raw)
        with pytest.raises(ReproError, match="snapshot"):
            load_bundle(bundle_dir)
