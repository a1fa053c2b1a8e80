"""Shared immutable geometry must answer queries identically from any thread."""

import time
from concurrent.futures import ThreadPoolExecutor

from softjig import queries
from softjig.fixtures import generate_proxy_fixture
from softjig.queries import intersects, min_distance
from softjig.relations import DIRECTION_ORDER, sweep_translation_is_free


def test_concurrent_queries_on_shared_meshes():
    motor = generate_proxy_fixture("motor").mesh
    plate = generate_proxy_fixture("plate").mesh
    shifted = plate.translated((0.0, 0.0, 30.0))

    def probe(_):
        return (
            min_distance(motor, shifted),
            intersects(motor, shifted),
            tuple(sweep_translation_is_free(motor, shifted, d, 200.0)
                  for d in DIRECTION_ORDER),
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, range(16)))
    assert len(set(results)) == 1


def test_concurrent_first_probe_requests_compute_once(monkeypatch):
    """Threads asking for a fresh mesh's probes at once share one computation."""
    mesh = generate_proxy_fixture("motor").mesh
    computed = []
    original = queries.surface_probe_points

    def slow(m):
        computed.append(m)
        time.sleep(0.05)
        return original(m)

    monkeypatch.setattr(queries, "surface_probe_points", slow)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: queries._probe_points(mesh), range(16)))
    assert len(computed) == 1
    assert all(r is results[0] for r in results)
