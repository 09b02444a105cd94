"""The document set behind the doc-requests workload.

``generate`` writes canonical documents for every max-points-5 corpus
logic plus seeded random 6-point frames, together with their spectra,
frames, and identity, embedding and random logic maps, and a manifest
naming each file.  ``reference`` recomputes the facts a correct response
must show, straight from the library on freshly parsed documents, and
cross-checks them against the brute-force oracles of ``tests/oracles.py``
wherever those are affordable.  ``request_mix`` draws the seeded request
sequence.  Only ``request_mix`` and ``check_response`` run without the
package; the rest is called from a worker interpreter.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

FRAME_POINTS = 6
FRAMES = 100
# The profile is derived, not chosen: ``frame_profile`` draws PROFILE_DRAWS
# unconstrained frames from a fixed seed and takes their sizes at FRAMES
# evenly spaced quantiles.  FRAME_PROFILE records its result as
# (expression count, frames of that size); selfcheck.py recomputes it.
PROFILE_SEED = "frame-profile"
PROFILE_DRAWS = 3000
FRAME_PROFILE = (
    (7, 9), (8, 9), (9, 9), (10, 6), (11, 5), (12, 5), (13, 3), (14, 3), (15, 3),
    (16, 4), (17, 1), (18, 4), (20, 3), (21, 2), (22, 2), (24, 3), (26, 1), (27, 1),
    (28, 2), (30, 2), (32, 3), (36, 3), (40, 3), (48, 7), (64, 7),
)
MAPPED_LOGICS = 30
RANDOM_MAPS = 30
ORACLE_THEORY_LIMIT = 10
ORACLE_BASIS_LIMIT = 12

# (command, document pool); roundtrip, dualize and export-dot take several kinds.
COMMANDS = (
    ("classify", "logics"),
    ("spectrum", "logics"),
    ("space", "logics"),
    ("dualize", "logics"),
    ("dualize", "spaces"),
    ("roundtrip", "logics"),
    ("roundtrip", "spaces"),
    ("roundtrip", "maps"),
    ("check-map", "maps"),
    ("godel-witness", "posets"),
    ("export-dot", "posets"),
    ("export-dot", "spaces"),
)
FORMATS = ("text", "json")
MAP_FLAGS = ("is_logic_map", "is_stable", "is_normal", "is_L_surjective", "is_isomorphism")


def draw_frame(rng: random.Random) -> list[tuple[int, int]]:
    """Covering pairs (lower, upper) of one unconstrained random 6-point frame:
    a random linear order, each of its pairs kept with one random density."""
    order = list(range(FRAME_POINTS))
    rng.shuffle(order)
    density = rng.uniform(0.0, 0.9)
    return [
        (order[i], order[j])
        for i in range(FRAME_POINTS)
        for j in range(i + 1, FRAME_POINTS)
        if rng.random() < density
    ]


def upset_count(pairs: list[tuple[int, int]], n: int = FRAME_POINTS) -> int:
    """Number of upsets of the order the pairs generate on n points, which is
    the expression count of the frame's filter logic.  Independent of logictop."""
    up = [1 << i | sum(1 << hi for lo, hi in pairs if lo == i) for i in range(n)]
    changed = True
    while changed:  # transitive closure
        changed = False
        for i in range(n):
            for j in range(n):
                if up[i] >> j & 1 and up[i] | up[j] != up[i]:
                    up[i] |= up[j]
                    changed = True
    return sum(
        all(up[i] & mask == up[i] for i in range(n) if mask >> i & 1)
        for mask in range(1 << n)
    )


def frame_profile() -> tuple[tuple[int, int], ...]:
    """The size profile of unconstrained frames, scaled to FRAMES frames."""
    rng = random.Random(PROFILE_SEED)
    sizes = sorted(upset_count(draw_frame(rng)) for _ in range(PROFILE_DRAWS))
    picked = [sizes[(2 * j + 1) * PROFILE_DRAWS // (2 * FRAMES)] for j in range(FRAMES)]
    return tuple(sorted(Counter(picked).items()))


def random_frames(rng: random.Random) -> list:
    """FRAMES random frames whose filter-logic sizes are FRAME_PROFILE.

    Frames are drawn as in ``frame_profile`` and kept while their size has
    room, so every seed yields different frames with the same size
    profile, that of unconstrained frames; work per set then varies
    little from seed to seed.
    """
    from logictop.builders import FinitePoset

    names = tuple(f"x{i}" for i in range(FRAME_POINTS))
    room = dict(FRAME_PROFILE)
    frames = []
    while len(frames) < FRAMES:
        pairs = draw_frame(rng)
        size = upset_count(pairs)
        if room.get(size):
            room[size] -= 1
            frame = FinitePoset.from_pairs(names, [(names[lo], names[hi]) for lo, hi in pairs])
            frames.append((f"random{len(frames)}", frame))
    return frames


def stratified(sizes: list[int], k: int) -> list[int]:
    """k indices, the middle one of each of k runs of the size order."""
    order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    return [order[(2 * j + 1) * len(order) // (2 * k)] for j in range(k)]


def generate(docdir: Path, seed: int) -> dict:
    """Write every document of the set for ``seed`` and return the manifest."""
    from logictop.builders import heyting_from_upsets, logic_from_lattice_filters
    from logictop.corpus import corpus_frames, degenerate_quartet
    from logictop.documents import Document, emit_document
    from logictop.duality import LogicMap, basic_open_embedding, logic_space
    from logictop.errors import WorkbenchError

    rng = random.Random(f"doc-requests/{seed}")
    frames = list(corpus_frames(5)) + random_frames(rng)
    named_logics = [
        (name, logic_from_lattice_filters(heyting_from_upsets(frame)), name, frame.n)
        for name, frame in frames
    ]
    named_logics += [(name, logic, None, None) for name, logic, _ in degenerate_quartet()]
    sizes = [logic.universe_size for _, logic, _, _ in named_logics]

    docdir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"seed": seed, "logics": [], "spaces": [], "posets": [], "maps": []}

    def write(pool: str, name: str, doc, **facts) -> None:
        path = docdir / f"{pool}-{len(manifest[pool])}.json"
        path.write_text(emit_document(doc), encoding="utf-8")
        manifest[pool].append({"name": name, "file": path.name, **facts})

    map_sources = set(stratified(sizes, MAPPED_LOGICS))
    for name, frame in frames:
        write("posets", name, Document("poset", frame), points=frame.n)
    for name, logic, frame_name, points in named_logics:
        write("logics", name, Document("logic", logic), frame=frame_name, points=points)
        write("spaces", f"spectrum({name})", Document("space", logic_space(logic).space), points=points)
        if len(manifest["logics"]) - 1 not in map_sources:
            continue
        identity = LogicMap(logic, logic, tuple(logic.exprs))
        write("maps", f"identity({name})", Document("logic_map", identity), kind="identity")
        try:
            embedding = basic_open_embedding(logic)
        except WorkbenchError:  # a spectrum whose basis misses a point has no dual logic
            continue
        write("maps", f"embedding({name})", Document("logic_map", embedding), kind="embedding")
    # Source and target strata are paired by one fixed permutation, so every
    # seed maps logics of the same sizes; the mappings come from the seed.
    targets = stratified(sizes, RANDOM_MAPS)
    random.Random("random-map-pairs").shuffle(targets)
    for i, (s, t) in enumerate(zip(stratified(sizes, RANDOM_MAPS), targets)):
        (src_name, src, _, _), (tgt_name, tgt, _, _) = named_logics[s], named_logics[t]
        mapping = tuple(rng.randrange(tgt.universe_size) for _ in src.exprs)
        write("maps", f"random{i}({src_name}->{tgt_name})", Document("logic_map", LogicMap(src, tgt, mapping)), kind="random")

    (docdir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _theory_line(label: str, names, theories) -> str:
    rendered = ["{" + ",".join(names[i] for i in t) + "}" for t in theories]
    return f"{label}: " + (" ".join(rendered) if rendered else "(none)")


def _index_sets(sets) -> list[list[int]]:
    return sorted(sorted(s) for s in sets)


def _attempt(fn):
    """Exit code and value the library gives, reading precondition failures as exit 1."""
    from logictop.errors import WorkbenchError

    try:
        return 0, fn()
    except WorkbenchError:
        return 1, None


def reference(docdir: Path, oracle_dir: Path) -> dict:
    """Facts each response must show, per document, plus any disagreement
    between the library and the oracles or the frame invariants."""
    from logictop.builders import godel_witness, heyting_from_upsets
    from logictop.connectives import verify_connectives
    from logictop.core import theory_spectrum
    from logictop.documents import Document, emit_document, parse_document
    from logictop.dot import export_dot
    from logictop.duality import analyze_logic_map, logic_space, roundtrip_logic, roundtrip_space, space_logic
    from logictop.topology import opens

    sys.path.insert(0, str(oracle_dir))
    from oracles import oracle_opens, oracle_primes

    manifest = json.loads((docdir / "manifest.json").read_text(encoding="utf-8"))
    load = lambda entry: parse_document((docdir / entry["file"]).read_text(encoding="utf-8")).value
    frames = {entry["name"]: load(entry) for entry in manifest["posets"]}
    problems: list[str] = []
    out: dict = {"logics": [], "spaces": [], "posets": [], "maps": []}

    def roundtrip_exit(fn):
        code, report = _attempt(fn)
        return 1 if code or not (report.iso_ok and report.square_ok) else 0

    for entry in manifest["logics"]:
        logic = load(entry)
        spectrum = theory_spectrum(logic)
        classification = verify_connectives(logic).classification
        primes, maximals = _index_sets(spectrum.primes), _index_sets(spectrum.maximals)
        code, pres = _attempt(lambda: logic_space(logic))
        out["logics"].append({
            "classification": classification,
            "primes": primes,
            "maximals": maximals,
            "primes_line": _theory_line("primes", logic.expr_names, primes),
            "maximals_line": _theory_line("maximals", logic.expr_names, maximals),
            "space_exit": code,
            "space_digest": digest(emit_document(Document("space", pres.space))) if pres else None,
            "roundtrip_exit": roundtrip_exit(lambda: roundtrip_logic(logic)),
        })
        if len(logic.theories) <= ORACLE_THEORY_LIMIT and oracle_primes(logic.theories.theories) != spectrum.primes:
            problems.append(f"{entry['name']}: primes disagree with oracle_primes")
        frame = frames.get(entry["frame"])
        if frame is not None:
            order = [(i, j) for i in range(frame.n) for j in range(frame.n) if frame.leq[i][j]]
            if logic.universe_size != upset_count(order, frame.n):
                problems.append(f"{entry['name']}: {logic.universe_size} expressions for "
                                f"{upset_count(order, frame.n)} upsets of its frame")
            if len(spectrum.totally_primes) != frame.n:
                problems.append(f"{entry['name']}: {len(spectrum.totally_primes)} prime filters for {frame.n} points")
            antichain = not any(frame.leq[i][j] for i in range(frame.n) for j in range(frame.n) if i != j)
            if (classification == "classical") != antichain:
                problems.append(f"{entry['name']}: classification {classification} on a frame with antichain={antichain}")

    for entry in manifest["spaces"]:
        space = load(entry)
        code, dual = _attempt(lambda: space_logic(space))
        out["spaces"].append({
            "dual_exit": code,
            "dual_digest": digest(emit_document(Document("logic", dual))) if dual else None,
            "roundtrip_exit": roundtrip_exit(lambda: roundtrip_space(space)),
            "dot_digest": digest(export_dot(space)),
        })
        if len(space.basis) <= ORACLE_BASIS_LIMIT and oracle_opens(space.n_points, space.basis) != opens(space):
            problems.append(f"{entry['name']}: opens disagree with oracle_opens")
        if entry["points"] is not None and space.n_points != entry["points"]:
            problems.append(f"{entry['name']}: {space.n_points} points for a {entry['points']}-point frame")

    for entry in manifest["posets"]:
        poset = frames[entry["name"]]
        algebra = heyting_from_upsets(poset)
        found = godel_witness(algebra)
        names = None if found is None else [algebra.element_names[i] for i in found]
        out["posets"].append({
            "godel": None if found is None else list(found),
            "godel_line": "witness: none" if names is None else "witness: p={} q={} lhs={} rhs={}".format(*names),
            "dot_digest": digest(export_dot(poset)),
        })

    for entry in manifest["maps"]:
        m = load(entry)
        analysis = analyze_logic_map(m)
        flags = [analysis.is_logic_map, analysis.is_stable, analysis.is_normal,
                 analysis.is_L_surjective, analysis.is_isomorphism]
        joins = all(
            side.connectives is not None and side.connectives.join is not None
            for side in (m.source, m.target)
        )
        out["maps"].append({
            "flags": flags,
            "joins": joins,
            "check_exit": 0 if all(flags) else 1,
            "roundtrip_exit": roundtrip_exit(lambda: roundtrip_logic(m.source, m)),
        })
        if entry["kind"] != "random" and not all(flags):
            problems.append(f"{entry['name']}: {entry['kind']} map is not an isomorphism")

    out["problems"] = problems
    return out


def request_mix(manifest: dict, seed: int) -> list[tuple[str, str, int, str]]:
    """The seeded (command, pool, document index, format) sequence of one pass.

    Every command meets every document of its pool once, formats
    alternating in a seeded order; the whole sequence is shuffled.
    """
    rng = random.Random(f"requests/{seed}")
    out = []
    for command, pool in COMMANDS:
        order = list(range(len(manifest[pool])))
        rng.shuffle(order)
        first = rng.randrange(len(FORMATS))
        out += [(command, pool, index, FORMATS[(first + i) % len(FORMATS)]) for i, index in enumerate(order)]
    rng.shuffle(out)
    return out


def check_response(request, code, text: str, ref: dict) -> str | None:
    """None when the response matches the reference, else what differs.

    ``code`` is the exit code, or None when the call raised; a raised call
    is reported by the caller as a failed request, not here.
    """
    command, pool, index, fmt = request
    fact = ref[pool][index]
    if command == "classify":
        got = json.loads(text)["classification"] if fmt == "json" else text.splitlines()[0]
        want = fact["classification"] if fmt == "json" else f"class: {fact['classification']}"
        return None if code == 0 and got == want else f"classify gave {code} {got!r}"
    if command == "spectrum":
        if fmt == "json":
            obj = json.loads(text)
            got = (_index_sets(obj["primes"]), _index_sets(obj["maximals"]))
            want = (fact["primes"], fact["maximals"])
        else:
            lines = text.splitlines()
            got = (lines[0], lines[2])
            want = (fact["primes_line"], fact["maximals_line"])
        return None if code == 0 and got == want else f"spectrum gave {code} {got!r}"
    if command in ("space", "dualize") and pool == "logics":
        want_code, want_digest = fact["space_exit"], fact["space_digest"]
    elif command == "dualize":
        want_code, want_digest = fact["dual_exit"], fact["dual_digest"]
    elif command == "export-dot":
        want_code, want_digest = 0, fact["dot_digest"]
    elif command == "roundtrip":
        want = fact["roundtrip_exit"]
        if code != want:
            return f"roundtrip exit {code}, expected {want}"
        if not text:
            return None if code == 1 else "roundtrip printed nothing"
        if fmt == "json":
            obj = json.loads(text)
            ok = obj["iso_ok"] and obj["square_ok"]
        else:
            ok = "iso_ok: true" in text.splitlines() and "square_ok: true" in text.splitlines()
        return None if ok == (code == 0) else "roundtrip verdict disagrees with its exit code"
    elif command == "check-map":
        if code != fact["check_exit"]:
            return f"check-map exit {code}, expected {fact['check_exit']}"
        if fmt == "json":
            obj = json.loads(text)
            analysis = obj["analysis"] if "analysis" in obj else obj
            got = [analysis[name] for name in MAP_FLAGS]
        else:
            lines = text.splitlines()
            got = [f"{name}: true" in lines for name in MAP_FLAGS]
        return None if got == fact["flags"] else f"check-map flags {got}, expected {fact['flags']}"
    elif command == "godel-witness":
        got = json.loads(text)["witness"] if fmt == "json" else text.splitlines()[0]
        want = fact["godel"] if fmt == "json" else fact["godel_line"]
        return None if code == 0 and got == want else f"godel-witness gave {code} {got!r}"
    else:
        raise ValueError(f"no check for {command} on {pool}")
    if code != want_code:
        return f"{command} exit {code}, expected {want_code}"
    if code == 0 and digest(text) != want_digest:
        return f"{command} output differs from the reference document"
    return None
