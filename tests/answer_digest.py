"""A sha256 digest of the sector rings, embeddings, product entries and
``presentation(model)`` of a fixed set of models, to compare two trees'
answers after a change that should keep them.

Over the Lawrence and hypertoric models of ``random_generic_instance`` at
``(1, 4)``, ``(1, 6)``, ``(2, 4)``, ``(2, 5)``, ``(3, 5)``, ``(3, 6)`` and
seeds 1-5, it hashes each ring and embedding the geometry of
``orbifold_table(model, 5)`` stores (fields, minimal trace masks, normal
characters and mask), every product entry of ``double_inertia`` and
``presentation(model)`` at the default truncation and at 4.  It prints the
stored rings, the stored embeddings and the digest.  Run it from the root
of a tree::

    PYTHONPATH=src python tests/answer_digest.py
"""

import hashlib
import random

from hypertoric import hypertoric_model, lawrence_model, orbifold_table
from hypertoric.chow import presentation
from hypertoric.inertia import double_inertia
from hypertoric.sampling import random_generic_instance

SHAPES = ((1, 4), (1, 6), (2, 4), (2, 5), (3, 5), (3, 6))


def _ring(p):
    return repr((p.num_vars, p.relations, p.truncation, p.minimal))


def main():
    digest = hashlib.sha256()
    rings = embeddings = 0
    for d, n in SHAPES:
        for seed in range(1, 6):
            a, theta = random_generic_instance(random.Random(seed), d, n)
            for build in (lawrence_model, hypertoric_model):
                model = build(a, theta)
                geo = orbifold_table(model, 5)
                for key, p in sorted(geo._presentations.items()):
                    digest.update(("ring %r %s\n" % (key, _ring(p))).encode())
                    rings += 1
                for key, e in sorted(geo._embeddings.items()):
                    digest.update(("emb %r %s %s %r %r\n" % (
                        key, _ring(e.sub), _ring(e.ambient), e.normal_chars, e.normal)).encode())
                    embeddings += 1
                for pair in double_inertia(model):
                    digest.update(("entry %r\n" % (geo.entry(pair.g1, pair.g2),)).encode())
                digest.update(("pres %s\n" % _ring(presentation(model))).encode())
                digest.update(("pres4 %s\n" % _ring(presentation(model, 4))).encode())
    print(rings, embeddings, digest.hexdigest())


if __name__ == "__main__":
    main()
