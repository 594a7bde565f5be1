"""The json-queries workload: single-object requests against pinwheel's JSON boundary.

A request is one JSON text.  Serving it takes three steps: parse the objects
it carries through their public `from_json`, run one of five operations, and
serialize the answer the way the `pinwheel` CLI prints it.  Requests come
from a fixed pool generated by this module (not from `enumerate_chains`, so
the library's caches start cold); a seed picks the order in which the whole
pool is sent.  Each pool entry has a recorded response digest, so every
response of every stream is checked, whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import random

POINTS = ((2, 3), (3, 3), (2, 4), (3, 4), (4, 3))
OPS = ("coset", "face", "stratum", "act_face", "act_tuple")
POOL_SEED = 20210413
POOL_SIZE = 6000
KEEP = 0.7
DIGEST_HEX = 16


def _chain(rng: random.Random, r: int, n: int) -> dict:
    # A random maximal order of 1..n with each prefix kept with probability
    # KEEP: every chain length 0..n occurs, and the rare short chains (whose
    # cosets and faces have up to |S(r, n)| elements) make the latency tail.
    order = list(range(1, n + 1))
    rng.shuffle(order)
    sets = [sorted(order[:j]) for j in range(1, n + 1) if rng.random() < KEEP]
    top = sets[-1] if sets else []
    return {
        "r": r,
        "n": n,
        "sets": sets,
        "decoration": {str(i): rng.randrange(r) for i in top},
    }


def _matrix(rng: random.Random, r: int, n: int) -> dict:
    rows = list(range(1, n + 1))
    rng.shuffle(rows)
    return {
        "r": r,
        "n": n,
        "cols": [{"col": c, "row": rows[c - 1], "exp": rng.randrange(r)} for c in range(1, n + 1)],
    }


def _vertex(rng: random.Random, r: int, n: int) -> dict:
    coords = []
    for _ in range(n):
        den = rng.choice((1, 2, 3, 4))
        coords.append({"mag": [str(rng.randint(0, n * den)), str(den)], "branch": rng.randrange(r)})
    return {"coords": coords}


def make_pool() -> list[str]:
    """The request pool, as JSON texts; the same on every call."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        r, n = rng.choice(POINTS)
        op = rng.choice(OPS)
        req: dict = {"op": op}
        if op != "act_tuple":
            req["chain"] = _chain(rng, r, n)
        if op in ("act_face", "act_tuple"):
            req["matrix"] = _matrix(rng, r, n)
        if op == "act_tuple":
            req["vertex"] = _vertex(rng, r, n)
        pool.append(json.dumps(req, separators=(",", ":")))
    return pool


def stream(seed: int) -> list[int]:
    """Pool indices of the request stream for one seed: the whole pool, in seeded order.

    A few requests cost a thousand times the median, so a stream drawn with
    replacement would do a different amount of work for every seed; a
    permutation does the same work in a different order.
    """
    order = list(range(POOL_SIZE))
    random.Random(seed).shuffle(order)
    return order


def digest(response: str) -> str:
    return hashlib.sha256(response.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def make_server():
    """Return serve(request_text) -> response_text, bound to pinwheel's current names.

    Call this after any tracer is installed, so the names it binds are the
    ones the tracer wraps.
    """
    from pinwheel.chains import Chain, chain_dimension
    from pinwheel.cosets import chain_to_coset, coset_elements
    from pinwheel.cyclo import YPoint
    from pinwheel.faces import DeltaFace, act_on_face, face_product_decomposition
    from pinwheel.group import GenPerm, act_on_tuple
    from pinwheel.strata import chain_to_stratum, dual_graph_dot

    def emit(data) -> str:
        return json.dumps(data, separators=(",", ":"))

    def coset(req):
        handle = chain_to_coset(Chain.from_json(req["chain"]))
        data = handle.to_json()
        elements = sorted(coset_elements(handle), key=lambda g: g.sort_key())
        data["elements"] = [g.to_json() for g in elements]
        return emit(data)

    def face(req):
        chain = Chain.from_json(req["chain"])
        return emit(
            {
                "chain": chain.to_json(),
                "dimension": chain_dimension(chain),
                "vertices": DeltaFace.from_chain(chain).to_json()["vertices"],
                "factors": [f.to_json() for f in face_product_decomposition(chain)],
            }
        )

    def stratum(req):
        return dual_graph_dot(chain_to_stratum(Chain.from_json(req["chain"])))

    def act_face(req):
        chain = Chain.from_json(req["chain"])
        return emit(act_on_face(chain, GenPerm.from_json(req["matrix"])).to_json())

    def act_tuple(req):
        matrix = GenPerm.from_json(req["matrix"])
        return emit(act_on_tuple(YPoint.from_json(req["vertex"], matrix.r), matrix).to_json())

    handlers = {
        "coset": coset,
        "face": face,
        "stratum": stratum,
        "act_face": act_face,
        "act_tuple": act_tuple,
    }

    def serve(text: str) -> str:
        req = json.loads(text)
        return handlers[req["op"]](req)

    return serve
