"""Seeded input generation: corpora, snapshots and request streams.

Everything a run sends or loads is derived from the workload seed, and
each corpus is prepared here, once per benchmark invocation, by the code
under test (data preparation, HNSW construction, snapshot writing).
Preparation is untimed. The server process only ever sees the snapshot
and the generated requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

#: Paper §4: 5 km x 5 km query ranges.
RANGE_KM = 5.0
#: Results requested per query/search (the paper's top-k).
K = 10
#: Vetted queries harvested per run (paper §4 harvests 30 per city;
#: three times that keeps the run-to-run spread of F1@10 near 10%).
VETTED_QUERIES = 90
#: Distinct generated /query texts prepared per run (the timed phase
#: stops early, and says so, if a run ever exhausts them).
QUERY_POOL = 1000

#: Synthetic vector corpus: clustered unit vectors in 2 hash shards.
VECTOR_POINTS = 24_000
VECTOR_DIM = 32
VECTOR_SHARDS = 2
VECTOR_CLUSTERS = 48
CLUSTER_NOISE = 0.12
VECTOR_COLLECTION = "bench_vectors"
#: Payload locations are uniform over this lat/lon square.
REGION = (38.40, -90.45, 38.80, -90.05)
#: Searches prepared per run (reused round-robin if a run needs more).
SEARCH_POOL = 4000
#: Searches sent after ingest_mixed's writes to measure recall@10.
RECALL_PROBES = 45
#: /upsert batch size on ingest_mixed, and the batches prepared per run.
UPSERT_BATCH = 8
UPSERT_POOL = 3000


# ----------------------------------------------------------------------
# semask_query
# ----------------------------------------------------------------------


@dataclass
class SemaskInputs:
    """The Saint Louis corpus snapshot plus every /query the run sends."""

    snapshot: Path
    dataset: object            # repro.data.dataset.Dataset
    vetted: list[dict]         # text, lat, lon, answers (ground truth ids)
    expected: list[list[dict]]  # in-process SemaSK entries per vetted query
    stream: list[dict]         # text, lat, lon (texts never repeat)


def _query_body(text: str, lat: float, lon: float) -> bytes:
    return json.dumps(
        {"text": text, "lat": lat, "lon": lon, "range_km": RANGE_KM}
    ).encode()


def prepare_semask(seed: int, workdir: Path) -> SemaskInputs:
    """Prepare paper-scale Saint Louis (2,462 POIs) and its queries.

    The vetted queries follow paper §4 (random point, 5 km range, random
    POI inside, simulated o1-mini question, automatic vetting). Each is
    re-centred on its range's midpoint, which is what the request sends,
    and its ground truth is recomputed over exactly that range. The
    stream texts come from the same generation prompt and are distinct
    from each other and from the vetted texts.
    """
    from repro.core.query import SpatialKeywordQuery
    from repro.core.storage import load_prepared, save_prepared
    from repro.core.variants import semask
    from repro.eval.corpus import build_corpus
    from repro.eval.queries import QUERYGEN_MODEL, EvalQueryBuilder
    from repro.geo.bbox import BoundingBox
    from repro.geo.point import GeoPoint
    from repro.llm.base import ChatMessage
    from repro.llm.prompts import (
        build_querygen_prompt,
        describe_poi_for_querygen,
    )

    corpus = build_corpus("SL", seed=seed, count=None)
    snapshot = workdir / "semask-snapshot"
    save_prepared(corpus.prepared, snapshot)

    queries, _ = EvalQueryBuilder(corpus.llm, corpus.ground_truth).build_for_city(
        corpus.city, corpus.dataset, count=VETTED_QUERIES, seed=seed
    )
    vetted = []
    for query in queries:
        center = query.box.center
        box = BoundingBox.around(center, RANGE_KM, RANGE_KM)
        answers = corpus.ground_truth.answer_set(corpus.dataset, box, query.intent)
        vetted.append({
            "text": query.text, "lat": center.lat, "lon": center.lon,
            "answers": sorted(answers),
        })

    # The oracle: in-process SemaSK over the same snapshot.
    system = semask(load_prepared(snapshot), candidate_k=K)
    expected = []
    for item in vetted:
        result = system.query(SpatialKeywordQuery.around(
            GeoPoint(item["lat"], item["lon"]), item["text"],
            RANGE_KM, RANGE_KM,
        ))
        expected.append([asdict(entry) for entry in result.entries])

    rng = random.Random(f"perfbench-stream:{seed}")
    bounds = corpus.city.bounds
    seen = {item["text"] for item in vetted}
    stream = []
    attempts = 0
    while len(stream) < QUERY_POOL and attempts < 4 * QUERY_POOL:
        attempts += 1
        lat = rng.uniform(bounds.min_lat, bounds.max_lat)
        lon = rng.uniform(bounds.min_lon, bounds.max_lon)
        in_range = corpus.dataset.in_range(
            BoundingBox.around(GeoPoint(lat, lon), RANGE_KM, RANGE_KM)
        )
        if not in_range:
            continue
        target = rng.choice(in_range)
        prompt = build_querygen_prompt(
            describe_poi_for_querygen(target.attributes())
        )
        text = corpus.llm.chat(
            QUERYGEN_MODEL, [ChatMessage("user", prompt)]
        ).content.strip()
        if text in seen:
            continue
        seen.add(text)
        stream.append({"text": text, "lat": lat, "lon": lon})
    return SemaskInputs(snapshot, corpus.dataset, vetted, expected, stream)


def semask_requests(inputs: SemaskInputs) -> dict[str, list[tuple]]:
    """Request lists ``(op, path, body, meta)`` for each phase."""
    stream = [
        ("query", "/query", _query_body(q["text"], q["lat"], q["lon"]), q)
        for q in inputs.stream
    ]
    vetted = [
        ("query", "/query", _query_body(q["text"], q["lat"], q["lon"]),
         dict(q, index=i))
        for i, q in enumerate(inputs.vetted)
    ]
    return {"stream": stream, "vetted": vetted}


# ----------------------------------------------------------------------
# vector_search / ingest_mixed
# ----------------------------------------------------------------------


@dataclass
class VectorInputs:
    """The synthetic corpus, its snapshot, and the generated requests."""

    snapshot: Path
    ids: list[str]
    vectors: np.ndarray         # (n, dim) float32 unit rows, as stored
    lat: np.ndarray
    lon: np.ndarray
    searches: list[dict]        # vector, box (or None), kind
    probes: list[dict]          # post-ingest recall searches
    new_ids: list[str]          # ingest_mixed points, in batch order
    new_vectors: np.ndarray
    new_lat: np.ndarray
    new_lon: np.ndarray


def _clustered(rng, centers, n):
    labels = rng.integers(0, len(centers), n)
    rows = centers[labels] + CLUSTER_NOISE * rng.standard_normal(
        (n, centers.shape[1])
    )
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(np.float32), labels


def _locations(rng, n):
    min_lat, min_lon, max_lat, max_lon = REGION
    return rng.uniform(min_lat, max_lat, n), rng.uniform(min_lon, max_lon, n)


def box_mask(box, lat, lon) -> np.ndarray:
    """Points inside ``(min_lat, min_lon, max_lat, max_lon)``, inclusive."""
    min_lat, min_lon, max_lat, max_lon = box
    return (lat >= min_lat) & (lat <= max_lat) & (lon >= min_lon) & (lon <= max_lon)


def _draw_box(rng, low, high):
    min_lat, min_lon, max_lat, max_lon = REGION
    height = (max_lat - min_lat) * rng.uniform(low, high)
    width = (max_lon - min_lon) * rng.uniform(low, high)
    south = rng.uniform(min_lat, max_lat - height)
    west = rng.uniform(min_lon, max_lon - width)
    return (float(south), float(west), float(south + height), float(west + width))


def _search_mix(rng, centers, count, lat, lon, shard_of, threshold):
    """Equal thirds: unfiltered, broad geo boxes, selective geo boxes.

    Broad boxes match more than ``threshold`` points in *every* shard,
    so each shard takes its filtered-HNSW path; selective boxes match
    about 1-4% of the points, so each shard scans its matching subset.
    """
    kinds = ["unfiltered", "broad", "selective"] * (count // 3 + 1)
    kinds = kinds[:count]
    rng.shuffle(kinds)
    vectors, _ = _clustered(rng, centers, count)
    searches = []
    for kind, vector in zip(kinds, vectors):
        box = None
        if kind == "broad":
            for _ in range(1000):
                box = _draw_box(rng, 0.88, 0.96)
                mask = box_mask(box, lat, lon)
                per_shard = np.bincount(shard_of[mask], minlength=VECTOR_SHARDS)
                if per_shard.min() > threshold:
                    break
            else:
                raise RuntimeError(
                    f"no geo box matches more than {threshold} points in "
                    "every shard; the corpus is too small for this threshold"
                )
        elif kind == "selective":
            box = _draw_box(rng, 0.10, 0.20)
        searches.append({"vector": vector, "box": box, "kind": kind})
    return searches


def prepare_vectors(seed: int, workdir: Path) -> VectorInputs:
    """Build, index and snapshot the 2-shard clustered corpus."""
    from repro.vectordb.client import VectorDBClient
    from repro.vectordb.collection import Collection, PointStruct
    from repro.vectordb.sharded import shard_for

    rng = np.random.default_rng([seed, 7_251])
    centers = rng.standard_normal((VECTOR_CLUSTERS, VECTOR_DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    vectors, labels = _clustered(rng, centers, VECTOR_POINTS)
    lat, lon = _locations(rng, VECTOR_POINTS)
    ids = [f"p{i:06d}" for i in range(VECTOR_POINTS)]

    client = VectorDBClient()
    collection = client.create_collection(
        VECTOR_COLLECTION, dim=VECTOR_DIM, shards=VECTOR_SHARDS
    )
    collection.upsert([
        PointStruct(id=ids[i], vector=vectors[i], payload=_payload(
            lat[i], lon[i], int(labels[i]), i))
        for i in range(VECTOR_POINTS)
    ])
    collection.build_hnsw()
    snapshot = workdir / "vector-snapshot"
    client.save(VECTOR_COLLECTION, snapshot)
    client.close()

    shard_of = np.array([shard_for(i, VECTOR_SHARDS) for i in ids])
    threshold = Collection.BRUTE_FORCE_THRESHOLD
    searches = _search_mix(rng, centers, SEARCH_POOL, lat, lon, shard_of, threshold)
    probes = _search_mix(rng, centers, RECALL_PROBES, lat, lon, shard_of, threshold)

    n_new = UPSERT_BATCH * UPSERT_POOL
    new_vectors, _ = _clustered(rng, centers, n_new)
    new_lat, new_lon = _locations(rng, n_new)
    new_ids = [f"n{i:06d}" for i in range(n_new)]
    return VectorInputs(
        snapshot, ids, vectors, lat, lon, searches, probes,
        new_ids, new_vectors, new_lat, new_lon,
    )


def _payload(lat, lon, cluster, i) -> dict:
    return {
        "location": {"lat": float(lat), "lon": float(lon)},
        "cluster": cluster,
        "price": round(5.0 + (i * 37 % 500) / 10.0, 1),
        "in_stock": i % 3 != 0,
    }


def _filter_json(box) -> dict:
    min_lat, min_lon, max_lat, max_lon = box
    return {"geo_bounding_box": {
        "key": "location", "min_lat": min_lat, "min_lon": min_lon,
        "max_lat": max_lat, "max_lon": max_lon,
    }}


def search_body(vector, box=None, exact=False, with_payload=True, k=K) -> bytes:
    """The JSON body of one ``/search`` on the benchmark collection."""
    body = {"collection": VECTOR_COLLECTION, "vector": vector.tolist(), "k": k}
    if box is not None:
        body["filter"] = _filter_json(box)
    if exact:
        body["exact"] = True
    if not with_payload:
        body["with_payload"] = False
    return json.dumps(body).encode()


def search_requests(searches: list[dict]) -> list[tuple]:
    """``/search`` requests ``(op, path, body, meta)`` for generated searches."""
    return [
        ("search", "/search", search_body(s["vector"], s["box"]), s)
        for s in searches
    ]


def upsert_requests(inputs: VectorInputs) -> list[tuple]:
    """``/upsert`` batches of new points from the same clusters."""
    requests = []
    for start in range(0, len(inputs.new_ids), UPSERT_BATCH):
        rows = range(start, start + UPSERT_BATCH)
        points = [{
            "id": inputs.new_ids[i],
            "vector": inputs.new_vectors[i].tolist(),
            "payload": _payload(inputs.new_lat[i], inputs.new_lon[i], -1, i),
        } for i in rows]
        body = json.dumps(
            {"collection": VECTOR_COLLECTION, "points": points}
        ).encode()
        requests.append(("upsert", "/upsert", body, {"rows": list(rows)}))
    return requests
