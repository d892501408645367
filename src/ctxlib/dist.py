"""Finite-support exact-rational distributions with the gluing operation.

Elements can be any hashable values and are told apart by value.  Canonical
string keys, derived structurally, fix the order of the atoms and the
serialized form, so a distribution over distributions works out of the box.
"""

from fractions import Fraction
from numbers import Rational

from .errors import DomainError, PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value):
    """Parse a rational from int/str/Fraction; exact, never float."""
    if isinstance(value, float):
        raise DomainError("floating point is not allowed in distributions")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise DomainError("not an exact rational: %r" % (value,)) from None


def rat_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (
        q.numerator, q.denominator)


def element_key(x, scalar=str):
    """Canonical string key of a support element, for ordering and output.

    Distinct values can share a key (1 and "1", or ("0,0", "1") and
    ("0", "0,1")), so atoms are never identified by it.  With
    scalar=_tagged they cannot: that is how Dist.canonical spells atoms."""
    if isinstance(x, Dist):
        return x.canonical()
    if isinstance(x, tuple):
        return "(" + ",".join(element_key(v, scalar) for v in x) + ")"
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(element_key(v, scalar)
                                     for v in x)) + "}"
    return scalar(x)


_ESCAPES = str.maketrans({c: "\\" + c for c in "\\(){},;=#"})


def _tagged(x):
    """A string with its reserved characters escaped; any other scalar
    tagged: a rational number by its value, else by its type."""
    if isinstance(x, str):
        return x.translate(_ESCAPES)
    if isinstance(x, Rational):
        return "#" + rat_str(x)
    return "#%s:%s" % (type(x).__name__, str(x).translate(_ESCAPES))


class Dist:
    """A probability distribution with finite support and rational weights."""

    __slots__ = ("_items", "_canon", "_index")

    def __init__(self, weights):
        if isinstance(weights, dict):
            weights = weights.items()
        acc = {}
        for x, w in weights:
            w = rat(w)
            if w < 0:
                raise DomainError("negative weight %s" % w)
            acc[x] = acc.get(x, ZERO) + w
        total = sum(acc.values(), ZERO)
        if total != 1:
            raise DomainError("weights sum to %s, not 1" % total)
        self._set({x: w for x, w in acc.items() if w > 0})

    @classmethod
    def _of(cls, index):
        """The Dist of index, positive Fractions summing to 1, unchecked."""
        p = cls.__new__(cls)
        p._set(index)
        return p

    def _set(self, index):
        self._index, self._canon = index, None
        self._items = tuple(sorted(index.items(),
                                   key=lambda item: element_key(item[0])))

    def items(self):
        return self._items

    def support(self):
        return tuple(x for x, _ in self._items)

    def __call__(self, x):
        return self._index.get(x, ZERO)

    def canonical(self):
        """The sorted atom=weight entries; distinct for distinct Dists."""
        if self._canon is None:
            self._canon = "{" + ";".join(sorted(
                "%s=%s" % (element_key(x, _tagged), rat_str(w))
                for x, w in self._items)) + "}"
        return self._canon

    def __eq__(self, other):
        return isinstance(other, Dist) and self._index == other._index

    def __hash__(self):
        return hash(frozenset(self._index.items()))

    def __repr__(self):
        return "Dist(%s)" % self.canonical()

    def to_json(self):
        out = {element_key(x): rat_str(w) for x, w in self._items}
        if len(out) != len(self._items):
            raise DomainError("distinct atoms of %r share a serialized key"
                              % self)
        return out


def delta(x):
    return Dist([(x, ONE)])


def pushforward(f, p):
    """The functor D on maps: add weights over each fiber, unchecked."""
    acc = {}
    for x, w in p.items():
        y = f(x)
        acc[y] = acc.get(y, ZERO) + w
    return Dist._of(acc)


def flatten(big):
    """Monad multiplication for a distribution over distributions."""
    out = []
    for inner, w in big.items():
        if not isinstance(inner, Dist):
            raise DomainError("flatten expects a distribution of distributions")
        for x, v in inner.items():
            out.append((x, w * v))
    return Dist(out)


def convex(t, p, q):
    """t*p + (1-t)*q."""
    t = rat(t)
    if not (0 <= t <= 1):
        raise DomainError("mixture weight %s outside [0,1]" % t)
    return Dist(list((x, t * w) for x, w in p.items())
                + list((x, (ONE - t) * w) for x, w in q.items()))


def mixture(pairs):
    """Finite convex combination given as (weight, Dist) pairs."""
    out = []
    for w, p in pairs:
        w = rat(w)
        if w < 0:
            raise DomainError("negative mixture weight")
        for x, v in p.items():
            out.append((x, w * v))
    return Dist(out)


def glue(f, g, p, q):
    """Glue p over X and q over Y along f: X->Z, g: Y->Z.

    Requires exactly equal pushforwards; the result lives on the set
    pullback {(x,y) : f(x)=g(y)} with weight p(x)q(y)/marginal(f(x)).
    """
    pf = pushforward(f, p)
    qg = pushforward(g, q)
    if pf != qg:
        raise PreconditionError(
            "marginals disagree: %s vs %s" % (pf.canonical(), qg.canonical()))
    out = []
    for x, wx in p.items():
        z = f(x)
        denom = pf(z)
        for y, wy in q.items():
            if g(y) == z:
                out.append(((x, y), wx * wy / denom))
    return Dist(out)


def glue_deterministic(f, g, p, y):
    """Glue p with the delta at y; requires pushforward(f,p) = delta(g(y))."""
    if pushforward(f, p) != delta(g(y)):
        raise PreconditionError("p is not concentrated over g(y)")
    return glue(f, g, p, delta(y))


def product_dist(p, q):
    """Independent product; the gluing over the one-point set."""
    return Dist([((x, y), wx * wy)
                 for x, wx in p.items() for y, wy in q.items()])
