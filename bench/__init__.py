"""The repository's one named benchmark (see bench/README.md, BENCHMARK.json)."""
