"""Dataset plumbing: vocabularies, binary feature files, manifests, and a
seeded synthetic sign->gloss->text corpus generator.

Feature file layout (little-endian): magic ``GLOTFEAT``, version u32,
frame count u32, feature width u32, then F*width float64 values row-major.
Manifests are tab-separated UTF-8, one sample per line (id, feature path,
gloss string, text string, split tag); ``#`` lines are comments and a
leading byte-order mark is skipped. Paths are resolved relative to the
manifest's directory.
"""

from __future__ import annotations

import codecs
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import GlotError

FEATURE_MAGIC = b"GLOTFEAT"
FEATURE_VERSION = 1

PAD, BOS, EOS, UNK = 0, 1, 2, 4  # id 3 is the reserved <sep>
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<sep>", "<unk>")


class FormatError(GlotError, ValueError):
    """A file does not match its declared binary or text layout."""


class DataError(GlotError, ValueError):
    """Token ids or dataset contents violate a contract."""


class Vocabulary:
    """Bidirectional token<->id map with five reserved leading ids."""

    def __init__(self, tokens: list[str]):
        for t in tokens:
            if t in RESERVED_TOKENS:
                raise DataError(f"corpus token collides with reserved {t!r}")
        self.id_to_token = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def tokens(self) -> list[str]:
        """Non-reserved tokens in id order."""
        return self.id_to_token[len(RESERVED_TOKENS):]

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        out = []
        for i in ids:
            if not 0 <= i < len(self.id_to_token):
                raise DataError(f"token id {i} out of range 0..{len(self) - 1}")
            out.append(self.id_to_token[i])
        return out

    def decode_content(self, ids: list[int]) -> list[str]:
        """Decode and drop reserved tokens (for BLEU scoring)."""
        return [t for t in self.decode(ids) if t not in RESERVED_TOKENS]


def build_vocab(sequences: list[list[str]]) -> Vocabulary:
    """Tokens ordered by descending frequency, ties lexicographic."""
    freq: dict[str, int] = {}
    for seq in sequences:
        for tok in seq:
            freq[tok] = freq.get(tok, 0) + 1
    ordered = sorted(freq, key=lambda t: (-freq[t], t))
    return Vocabulary(ordered)


# ---------------------------------------------------------------------------
# feature files

def write_feature_file(path: Path | str, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DataError("features must be a 2-D matrix")
    F, width = features.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, F, width))
        fh.write(features.astype("<f8").tobytes())


def read_feature_file(path: Path | str) -> np.ndarray:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 20:
        raise FormatError(f"{path}: truncated header")
    if blob[:8] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:8]!r}")
    version, F, width = struct.unpack("<III", blob[8:20])
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if F < 1:
        raise FormatError(f"{path}: no frames")
    expected = 20 + F * width * 8
    if len(blob) != expected:
        raise FormatError(f"{path}: payload is {len(blob)} bytes, "
                          f"header implies {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=20).reshape(F, width).copy()
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite feature values")
    return data


# ---------------------------------------------------------------------------
# samples and manifests

@dataclass
class SignSample:
    id: str
    features: np.ndarray   # F x feat_dim
    gloss: list[str]
    text: list[str]


@dataclass
class ManifestEntry:
    id: str
    path: str
    gloss: str
    text: str
    split: str  # "cv" or "test"


@dataclass
class Manifest:
    root: Path
    entries: list[ManifestEntry] = field(default_factory=list)

    def load_samples(self, split: str | None = None) -> list[SignSample]:
        samples = []
        widths = set()
        for e in self.entries:
            if split is not None and e.split != split:
                continue
            feats = read_feature_file(self.root / e.path)
            widths.add(feats.shape[1])
            samples.append(SignSample(id=e.id, features=feats,
                                      gloss=e.gloss.split(),
                                      text=e.text.split()))
        if len(widths) > 1:
            raise DataError(f"inconsistent feature widths {sorted(widths)}")
        return samples


def write_manifest(path: Path | str, entries: list[ManifestEntry]) -> None:
    lines = ["# id\tpath\tgloss\ttext\tsplit"]
    for e in entries:
        lines.append(f"{e.id}\t{e.path}\t{e.gloss}\t{e.text}\t{e.split}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_utf8(path: Path | str) -> str:
    """The text of a UTF-8 file, less one leading byte-order mark;
    FormatError, naming the file and line, if it holds a byte sequence
    that is not UTF-8."""
    blob = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as e:
        line = blob.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from None


def read_manifest(path: Path | str) -> Manifest:
    path = Path(path)
    entries = []
    seen = set()
    for ln, line in enumerate(read_utf8(path).splitlines(), 1):
        line = line.strip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise FormatError(f"{path}:{ln}: expected 5 tab-separated fields, "
                              f"got {len(parts)}")
        e = ManifestEntry(*parts)
        if e.split not in ("cv", "test"):
            raise FormatError(f"{path}:{ln}: unknown split tag {e.split!r}")
        if e.id in seen:
            raise FormatError(f"{path}:{ln}: duplicate id {e.id!r}")
        seen.add(e.id)
        entries.append(e)
    return Manifest(root=path.parent, entries=entries)


# ---------------------------------------------------------------------------
# synthetic corpus

def gloss_to_text(gloss: list[str]) -> list[str]:
    """Deterministic, invertible rewrite: the first sign moves to the end,
    fixed function words frame the sentence."""
    return ["so"] + gloss[1:] + ["then", gloss[0]]


def synth_generate(seed: int, n_samples: int, n_signs: int, feat_dim: int,
                   noise_sigma: float, out_dir: Path | str) -> Manifest:
    """Write a seeded synthetic corpus under out_dir and return its manifest.

    Each latent sign has a fixed prototype feature vector; a sample draws
    3-8 signs, repeats each prototype for 2-4 frames plus Gaussian noise,
    and pairs the sign names (gloss) with their grammar rewrite (text).
    The last 20% of samples (after a seeded shuffle) are tagged "test".
    """
    if n_samples < 1:
        raise DataError(f"need at least 1 sample, got {n_samples}")
    if n_signs < 2:
        raise DataError(f"need at least 2 latent signs, got {n_signs}")
    if feat_dim < 2:
        raise DataError(f"need feat_dim >= 2, got {feat_dim}")
    if not 0 <= noise_sigma < np.inf:
        raise DataError(f"noise_sigma must be finite and >= 0, got "
                        f"{noise_sigma}")
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    prototypes = rng.uniform(-1.0, 1.0, size=(n_signs, feat_dim))
    sign_names = [f"sign{i:02d}" for i in range(n_signs)]

    entries = []
    for i in range(n_samples):
        n_draw = int(rng.integers(3, 9))
        sign_ids = rng.integers(0, n_signs, size=n_draw)
        frames = []
        for s in sign_ids:
            repeats = int(rng.integers(2, 5))
            block = np.tile(prototypes[s], (repeats, 1))
            if noise_sigma > 0:
                block = block + rng.normal(0.0, noise_sigma, size=block.shape)
            frames.append(block)
        features = np.vstack(frames)
        gloss = [sign_names[s] for s in sign_ids]
        text = gloss_to_text(gloss)
        sample_id = f"sample{i:04d}"
        rel = f"features/{sample_id}.feat"
        write_feature_file(out_dir / rel, features)
        entries.append(ManifestEntry(id=sample_id, path=rel,
                                     gloss=" ".join(gloss),
                                     text=" ".join(text), split="cv"))

    order = rng.permutation(n_samples)
    n_test = n_samples // 5
    for idx in order[n_samples - n_test:]:
        entries[idx].split = "test"

    manifest_path = out_dir / "manifest.tsv"
    write_manifest(manifest_path, entries)
    return read_manifest(manifest_path)
