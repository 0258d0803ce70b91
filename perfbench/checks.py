"""Answer checks that share no code with the package under test.

Tables here are plain nested sequences of 1-based ints (``rows[x-1][y-1]`` is
x > y); groups are tuples of cyclic factors with elements coded as 1-based
mixed-radix indices, last factor fastest, the coding AbelianGroupSpec
documents.
"""

from __future__ import annotations

import hashlib
import json
import math

# OEIS A181771: quandles of order n up to isomorphism.
A181771 = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}


def digest(value) -> str:
    """sha256 of bytes, of a str, or of a JSON-serialisable value."""
    if isinstance(value, str):
        value = value.encode()
    elif not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(value).hexdigest()


def is_isomorphism(rows1, rows2, images) -> bool:
    """True when x -> images[x-1] is a bijection carrying rows1 onto rows2."""
    n = len(rows1)
    if len(rows2) != n or sorted(images) != list(range(1, n + 1)):
        return False
    return all(images[rows1[x][y] - 1] == rows2[images[x] - 1][images[y] - 1]
               for x in range(n) for y in range(n))


def _digits(factors, index):
    k = index - 1
    out = []
    for f in reversed(factors):
        out.append(k % f)
        k //= f
    return out[::-1]


def _index(factors, digits):
    k = 0
    for f, d in zip(factors, digits):
        k = k * f + d % f
    return k + 1


def group_add(factors, i, j):
    return _index(factors, [a + b for a, b in zip(_digits(factors, i), _digits(factors, j))])


def group_sub(factors, i, j):
    return _index(factors, [a - b for a, b in zip(_digits(factors, i), _digits(factors, j))])


def extend_images(factors, images):
    """The additive map sending the k-th canonical generator to images[k], as
    a list over all elements; None when an image's order does not divide its
    generator's or the map is not a bijection."""
    gens = [_digits(factors, g) for g in images]
    for f, g in zip(factors, gens):
        if any((f * b) % h for b, h in zip(g, factors)):
            return None
    n = math.prod(factors)
    full = []
    for i in range(1, n + 1):
        acc = [0] * len(factors)
        for d, g in zip(_digits(factors, i), gens):
            acc = [a + d * b for a, b in zip(acc, g)]
        full.append(_index(factors, acc))
    return full if sorted(full) == list(range(1, n + 1)) else None


def affine_replay(rows, factors, generator_images, iso_images) -> bool:
    """Replay x > y = t(x) + (1-t)(y) through the witness isomorphism."""
    n = len(rows)
    if math.prod(factors) != n or sorted(iso_images) != list(range(1, n + 1)):
        return False
    t = extend_images(factors, generator_images)
    if t is None:
        return False
    for x in range(n):
        gx = iso_images[x]
        for y in range(n):
            gy = iso_images[y]
            want = group_add(factors, t[gx - 1], group_sub(factors, gy, t[gy - 1]))
            if iso_images[rows[x][y] - 1] != want:
                return False
    return True
