"""Save/load a complete QA setup (knowledge graph + mined dictionary).

The offline phase is the expensive part of deployment; a *bundle* persists
its outputs so a service can start without re-mining:

    from repro.bundle import save_bundle, load_bundle

    save_bundle("deploy/", kg, dictionary)
    kg, dictionary = load_bundle("deploy/")
    system = GAnswer(kg, dictionary)

A bundle directory holds ``graph.nt`` (N-Triples) and ``dictionary.json``
plus a small manifest for sanity checks.  Format v2 bundles may also
carry a compiled snapshot (``graph.snap``, see :mod:`repro.rdf.snapshot`)
which :func:`load_bundle` prefers: it restores the encoded, indexed form
directly instead of re-parsing text and rebuilding every index.  V1
bundles (and v2 bundles whose snapshot is missing) load through the text
path unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.exceptions import ReproError, SnapshotError
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.io import load_knowledge_graph, save_store

_MANIFEST_NAME = "manifest.json"
_GRAPH_NAME = "graph.nt"
_DICTIONARY_NAME = "dictionary.json"
_SNAPSHOT_NAME = "graph.snap"
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def save_bundle(
    directory: str | Path,
    kg: KnowledgeGraph,
    dictionary: ParaphraseDictionary,
    include_snapshot: bool = False,
    shards: int | None = None,
) -> Path:
    """Write the setup into ``directory`` (created if needed).

    With ``include_snapshot=True`` a compiled snapshot rides along and
    becomes the preferred load path — near-instant cold start — while the
    text members keep the bundle portable and diffable.  ``shards=K``
    makes that snapshot the sharded form (manifest + K lazily-loaded
    segment files); the loader sniffs the form, so consumers are
    unaffected.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    triple_count = save_store(kg.store, directory / _GRAPH_NAME)
    # Portable form: the graph file re-assigns term ids on load, so the
    # dictionary must name predicates by IRI, not by id.
    (directory / _DICTIONARY_NAME).write_text(
        dictionary.to_portable_json(kg), encoding="utf-8"
    )
    manifest = {
        "format_version": _FORMAT_VERSION,
        "triples": triple_count,
        "phrases": len(dictionary),
    }
    if include_snapshot:
        from repro.rdf.snapshot import compile_snapshot

        compile_snapshot(directory / _SNAPSHOT_NAME, kg, dictionary, shards=shards)
        manifest["snapshot"] = _SNAPSHOT_NAME
    (directory / _MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8"
    )
    return directory


def load_bundle(directory: str | Path) -> tuple[KnowledgeGraph, ParaphraseDictionary]:
    """Load a setup saved by :func:`save_bundle`.

    The dictionary's predicate-path ids refer to the graph's term
    dictionary, which is why the two are bundled: loading them separately
    from mismatched sources would silently mis-map every path.  The
    manifest's triple and phrase counts guard against truncated files.

    When the manifest names a compiled snapshot, the snapshot is loaded
    instead of the text members (falling back to text if the snapshot
    file is absent).
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.exists():
        raise ReproError(f"not a bundle directory (no manifest): {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format_version") not in _SUPPORTED_VERSIONS:
        raise ReproError(
            f"unsupported bundle format {manifest.get('format_version')!r}"
        )

    snapshot_name = manifest.get("snapshot")
    if snapshot_name and (directory / snapshot_name).exists():
        from repro.rdf.snapshot import load_snapshot

        try:
            state = load_snapshot(directory / snapshot_name)
        except SnapshotError as exc:
            raise ReproError(f"bundle snapshot is unusable: {exc}") from exc
        _verify_counts(manifest, len(state.kg.store), len(state.dictionary))
        return state.kg, state.dictionary

    kg = load_knowledge_graph(directory / _GRAPH_NAME)
    dictionary_path = directory / _DICTIONARY_NAME
    try:
        dictionary = ParaphraseDictionary.from_portable_json(
            dictionary_path.read_text(encoding="utf-8"), kg
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ReproError(
            f"bundle dictionary {dictionary_path} is truncated or corrupt: {exc}"
        ) from exc
    _verify_counts(manifest, len(kg.store), len(dictionary))
    return kg, dictionary


def _verify_counts(manifest: dict, triples: int, phrases: int) -> None:
    if triples != manifest["triples"]:
        raise ReproError(
            f"bundle graph has {triples} triples, manifest says "
            f"{manifest['triples']} — truncated or modified file?"
        )
    # V1 manifests already recorded the phrase count; it was never checked,
    # so a truncated dictionary.json loaded silently with fewer phrases.
    expected_phrases = manifest.get("phrases")
    if expected_phrases is not None and phrases != expected_phrases:
        raise ReproError(
            f"bundle dictionary has {phrases} phrases, manifest says "
            f"{expected_phrases} — truncated or modified dictionary.json?"
        )
