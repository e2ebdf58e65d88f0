"""Curated store of build vectors and beta sets, plus a vector-file parser.

Data lives in plain-text files under nega3/data (override the directory with
the NEGA3_DATA environment variable).  Each file's sha256 is pinned here;
a mismatch means the transcription was edited and the registry refuses to
load rather than serve silently corrupted constants.

Three beta sets are given by closed formulas instead of explicit tables and
are expanded in code: gamma36(), gamma48_1() and gamma48_2().  The expanded
values are snapshot-tested.

Beta bookkeeping for length 60 is incomplete on purpose: two previously
published sets are not carried here, so novelty judgements at that length
are only one-sided (membership proves "known", absence proves nothing).
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import LengthMismatchError, RegistryError, VectorFileError
from .gf3 import Gf3Vector
from .nega import CodeSpec, is_self_dual

_DATA_ENV = "NEGA3_DATA"

_CHECKSUMS = {
    "specs36.txt": "e38a9a1ec16d36057cbfdd9dcbfbd4e36244601fc142a596591c734aaee78611",
    "specs48.txt": "9dda4642707a7201021322a101d918d76aff9b2cf5df7cbd0acf03304899fc61",
    "neighbors36.txt": "8b6792f02fb8eb5368897bf18dfe50cfd16cbae7287485645051cc99050faedf",
    "gamma.json": "b8179f8805a1950d945caed92874b2cd17e007c9f74a21526eaf66ea07933f83",
}

# lengths where the carried prior beta sets are believed complete
_COMPLETE_PRIOR_LENGTHS = frozenset({36, 48})


@dataclass(frozen=True)
class RegistryEntry:
    """One labeled record: either a code spec or a neighbor seed vector."""

    label: str
    length: int
    kind: str  # "spec" | "extremal-spec" | "neighbor-vector"
    spec: CodeSpec | None = None
    x: Gf3Vector | None = None
    parent: str | None = None
    expected_d: int | None = None
    expected_beta: int | None = None

    def __post_init__(self):
        if self.kind in ("spec", "extremal-spec"):
            if self.spec is None or self.spec.length != self.length:
                raise RegistryError(f"{self.label}: spec missing or wrong length")
        elif self.kind == "neighbor-vector":
            if self.x is None or len(self.x) != self.length or self.parent is None:
                raise RegistryError(f"{self.label}: vector/parent missing or wrong length")
        else:
            raise RegistryError(f"{self.label}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class GammaSet:
    """A set of beta values at one length, with alpha = alpha_multiplier * beta.

    origin is "prior" for sets carried over from earlier publications and
    "found" for the sets produced by this search program.
    """

    name: str
    length: int
    members: frozenset[int]
    alpha_multiplier: int = 8
    origin: str = "prior"

    def beta8_members(self) -> frozenset[int]:
        """Members rescaled to alpha/8 units, the common currency here."""
        if self.alpha_multiplier == 8:
            return self.members
        if self.alpha_multiplier % 8 != 0:
            raise RegistryError(f"{self.name}: multiplier {self.alpha_multiplier} not a multiple of 8")
        scale = self.alpha_multiplier // 8
        return frozenset(scale * b for b in self.members)


def gamma36() -> frozenset[int]:
    # {3i, 3i+1 : i = 2..27} plus four extra values
    return frozenset(
        {3 * i for i in range(2, 28)}
        | {3 * i + 1 for i in range(2, 28)}
        | {85, 90, 91, 93}
    )


def gamma48_1() -> frozenset[int]:
    # alpha = 48 * beta for this one set
    return frozenset({33, 34} | set(range(36, 108)) | {110, 113, 115, 116, 117, 118, 123, 126, 132, 142, 166, 246})


def gamma48_2() -> frozenset[int]:
    base = {180, 181, 182, 184, 188, 210, 212, 215} | set(range(217, 276)) | {277, 278, 281}
    return frozenset(base - {222, 228, 234, 240, 246, 252, 258, 264, 270, 276})


@dataclass
class Registry:
    entries: dict[str, RegistryEntry] = field(default_factory=dict)
    gamma_sets: dict[str, GammaSet] = field(default_factory=dict)

    def entry(self, label: str) -> RegistryEntry:
        try:
            return self.entries[label]
        except KeyError:
            raise RegistryError(f"no registry entry named {label!r}") from None

    def sets_for_length(self, length: int) -> list[GammaSet]:
        return [g for g in self.gamma_sets.values() if g.length == length]

    def prior_knowledge_complete(self, length: int) -> bool:
        return length in _COMPLETE_PRIOR_LENGTHS


def _data_dir() -> Path:
    override = os.environ.get(_DATA_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def _read_checked(path: Path) -> str:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise RegistryError(f"cannot read registry data file {path}: {exc}") from exc
    expected = _CHECKSUMS.get(path.name)
    if expected is not None:
        digest = hashlib.sha256(raw).hexdigest()
        if digest != expected:
            raise RegistryError(
                f"{path.name}: transcription checksum mismatch (got {digest}, want {expected})"
            )
    return raw.decode("ascii")


_DIGITS_RE = re.compile(r"[\s,()]+")


def _parse_digits(text: str, lineno: int) -> tuple[int, ...]:
    out = []
    for token in _DIGITS_RE.split(text.strip()):
        if not token:
            continue
        if not token.isdigit() or len(token) > 1 or token not in "012":
            raise VectorFileError(f"entry {token!r} is not a digit in {{0,1,2}}", line=lineno)
        out.append(int(token))
    if not out:
        raise VectorFileError("empty vector", line=lineno)
    return tuple(out)


def _parse_records(text: str) -> Iterator[tuple[int, dict[str, tuple[str, int]]]]:
    """Yield (header_line, {key: (value, lineno)}) for each [label] block."""
    record: dict[str, tuple[str, int]] = {}
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if record:
                yield header_line, record
            if not line.endswith("]"):
                raise VectorFileError("unterminated [label] header", line=lineno)
            record = {"label": (line[1:-1].strip(), lineno)}
            header_line = lineno
            continue
        if ":" not in line:
            raise VectorFileError(f"expected 'key: value', got {line!r}", line=lineno)
        key, value = line.split(":", 1)
        record[key.strip()] = (value.strip(), lineno)
    if record:
        yield header_line, record


def _entry_from_record(header_line: int, rec: dict[str, tuple[str, int]]) -> RegistryEntry:
    label = rec["label"][0]
    kind = rec.get("kind", ("spec", header_line))[0]
    if kind in ("spec", "extremal-spec"):
        try:
            block = int(rec["block"][0])
            rows = tuple(_parse_digits(*rec[key]) for key in ("r1", "r2", "r3"))
        except KeyError as exc:
            raise VectorFileError(f"{label}: missing field {exc.args[0]}", line=header_line) from None
        try:
            spec = CodeSpec(block, *(Gf3Vector(r) for r in rows))
        except LengthMismatchError as exc:
            raise VectorFileError(f"{label}: {exc}", line=header_line) from None
        d = int(rec["d"][0]) if "d" in rec else None
        beta = int(rec["beta"][0]) if "beta" in rec else None
        return RegistryEntry(label, spec.length, kind, spec=spec, expected_d=d, expected_beta=beta)
    if kind == "neighbor-vector":
        try:
            length = int(rec["length"][0])
            x = Gf3Vector(_parse_digits(*rec["x"]))
            parent = rec["parent"][0]
        except KeyError as exc:
            raise VectorFileError(f"{label}: missing field {exc.args[0]}", line=header_line) from None
        beta = int(rec["beta"][0]) if "beta" in rec else None
        return RegistryEntry(label, length, kind, x=x, parent=parent, expected_beta=beta)
    raise VectorFileError(f"{label}: unknown kind {kind!r}", line=header_line)


def _load_gamma(path: Path) -> dict[str, GammaSet]:
    import json

    doc = json.loads(_read_checked(path))
    out = {}
    for item in doc["gamma_sets"]:
        g = GammaSet(
            name=item["name"],
            length=item["length"],
            members=frozenset(item["members"]),
            alpha_multiplier=item.get("alpha_multiplier", 8),
            origin=item.get("origin", "prior"),
        )
        out[g.name] = g
    return out


def load_registry(data_dir: Path | str | None = None) -> Registry:
    """Load and validate every entry and beta set.

    Each spec entry is checked for self-duality at load time; the point of
    the registry is that downstream code can trust it blindly.
    """
    base = Path(data_dir) if data_dir is not None else _data_dir()
    reg = Registry()
    for name in ("specs36.txt", "specs48.txt", "neighbors36.txt"):
        text = _read_checked(base / name)
        for header_line, rec in _parse_records(text):
            try:
                entry = _entry_from_record(header_line, rec)
            except VectorFileError as exc:
                raise RegistryError(f"{name}: {exc}") from exc
            if entry.label in reg.entries:
                raise RegistryError(f"{name}: duplicate label {entry.label}")
            if entry.spec is not None and not is_self_dual(entry.spec):
                raise RegistryError(f"{name}: {entry.label} does not build a self-dual code")
            reg.entries[entry.label] = entry

    for label, entry in reg.entries.items():
        if entry.parent is not None and entry.parent not in reg.entries:
            raise RegistryError(f"{label}: unknown parent {entry.parent!r}")

    reg.gamma_sets = _load_gamma(base / "gamma.json")
    reg.gamma_sets["Gamma36"] = GammaSet("Gamma36", 36, gamma36(), origin="found")
    reg.gamma_sets["Gamma48,1"] = GammaSet("Gamma48,1", 48, gamma48_1(), alpha_multiplier=48)
    reg.gamma_sets["Gamma48,2"] = GammaSet("Gamma48,2", 48, gamma48_2())
    return reg


# -- plain vector files ---------------------------------------------------------
#
# The interchange format for bare specs: records of three lines "r1: ...",
# "r2: ...", "r3: ...", blank-line separated, '#' starts a comment.  Digit
# separators may be spaces or commas; surrounding parentheses are tolerated.


def ingest_vector_file(source: Path | str | Iterable[str]) -> list[RegistryEntry]:
    """Parse a plain vector file into anonymous registry entries.

    source may be a path or an iterable of lines.  Entries are labeled
    ingest-1, ingest-2, ... in file order.  Every record is validated:
    three rows, equal lengths divisible by 3, digits in {0,1,2}.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text().splitlines()
    else:
        lines = list(source)

    entries: list[RegistryEntry] = []
    current: dict[str, tuple[int, ...]] = {}
    current_line = 0

    def flush():
        nonlocal current
        if not current:
            return
        missing = {"r1", "r2", "r3"} - current.keys()
        if missing:
            raise VectorFileError(f"record missing {sorted(missing)}", line=current_line)
        r1, r2, r3 = current["r1"], current["r2"], current["r3"]
        if not (len(r1) == len(r2) == len(r3)):
            raise VectorFileError("rows have different lengths", line=current_line)
        if len(r1) % 3 != 0:
            raise VectorFileError(f"row length {len(r1)} is not a multiple of 3", line=current_line)
        spec = CodeSpec.from_entry_rows([r1, r2, r3])
        entries.append(
            RegistryEntry(f"ingest-{len(entries) + 1}", spec.length, "spec", spec=spec)
        )
        current = {}

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if ":" in line:
            key, value = line.split(":", 1)
            key = key.strip()
        else:
            # tolerate bare digit lines in r1, r2, r3 order
            key = f"r{len(current) + 1}"
            value = line
        if key not in ("r1", "r2", "r3"):
            raise VectorFileError(f"unexpected key {key!r}", line=lineno)
        if key in current:
            raise VectorFileError(f"duplicate {key} in record", line=lineno)
        if not current:
            current_line = lineno
        current[key] = _parse_digits(value, lineno)
    flush()
    return entries


def format_vector_record(spec: CodeSpec) -> str:
    """Render a spec in the plain vector-file format (round-trips through
    ingest_vector_file)."""
    return "\n".join(
        f"r{i}: " + " ".join(str(e) for e in row.entries())
        for i, row in enumerate(spec.rows, start=1)
    )
