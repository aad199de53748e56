"""The exact evaluator written out in QuadNum arithmetic: the reference for m_star.

m_star walks the tails and builds the four s*-products on int triples.  This
module computes the same minimum with QuadNum operators only: the tails by
their plain recurrences, closed round one period, each product as its two
factors multiplied, and the reflection digit by digit.  Tests compare the two;
they share nothing but QuadNum and the pair's alpha.
"""


def _is_max(word, alpha):
    """Per position of the word, whether its digit is maximal, t_i = a_i."""
    return [t == alpha.partial_quotient(i) for i, t in enumerate(word, start=1)]


def reflect(word, alpha):
    """The reflected period, or None when two maximal digits are neighbours
    or a digit leaves its range.

    A maximal digit stays; any other t_i becomes -t_i - 2 for each maximal
    neighbour, the word read cyclically.
    """
    L, top = len(word), _is_max(word, alpha)
    out = []
    for k, t in enumerate(word):
        if top[k] and top[(k + 1) % L]:
            return None
        if not top[k]:
            q = alpha.partial_quotient(k + 1)
            t = -t - 2 * (top[k - 1] + top[(k + 1) % L])
            if not -(q - 2) <= t <= q:
                return None
        out.append(t)
    return tuple(out)


def tails(word, alpha):
    """(d^-, d^+) of the bi-infinite period, each a list at indices 0..L-1.

    d_{i-1}^+ = alpha_{i-1} (t_i + d_i^+) and d_i^- = alpha_{i-1} (t_i + d_{i-1}^-),
    with t_i read at i mod L.  A walk of L steps from d ends at c + P*d, with
    P the product of alpha_0 ... alpha_{L-1} and c the end of the same walk
    from 0; the period closes where that end is d again, d = c/(1 - P).  A
    second walk from that d gives every tail.
    """
    L = len(word)
    P = 1
    for i in range(L):
        P = P * alpha.alpha_at(i)

    def t(i):
        return word[(i - 1) % L]

    def plus_walk(d):  # [d_0^+, ..., d_L^+] from d_L^+ = d
        out = [d]
        for i in range(L, 0, -1):
            out.append(alpha.alpha_at(i - 1) * (t(i) + out[-1]))
        return out[::-1]

    def minus_walk(d):  # [d_0^-, ..., d_L^-] from d_0^- = d
        out = [d]
        for i in range(1, L + 1):
            out.append(alpha.alpha_at(i - 1) * (t(i) + out[-1]))
        return out

    zero = alpha.eta * 0
    plus = plus_walk(plus_walk(zero)[0] / (1 - P))
    minus = minus_walk(minus_walk(zero)[-1] / (1 - P))
    return minus[:L], plus[:L]


def products(alpha, i, dm, dp):
    """(s1*, s2*, s3*, s4*) at index i from the tails dm = d_i^-, dp = d_i^+."""
    ai, ap = alpha.alpha_at(i), alpha.alpha_at(i - 1)
    return (
        (1 - ai + dp) * (1 - ap + dm),
        (1 + ai - dp) * (1 + ap + dm),
        (1 - ai - dp) * (1 - ap - dm),
        (1 + ai + dp) * (1 + ap - dm),
    )


def m_star(word, alpha):
    """The least applicable s*-product over one period of the word, or None
    when the word has a maximal digit and reflect refuses it.

    Without a maximal digit all four products of the word count; with one,
    s1*, s2* and s4* of the word and of its reflection.
    """
    if any(_is_max(word, alpha)):
        mirror = reflect(word, alpha)
        if mirror is None:
            return None
        variants, picks = (word, mirror), (0, 1, 3)
    else:
        variants, picks = (word,), (0, 1, 2, 3)
    values = []
    for w in variants:
        minus, plus = tails(w, alpha)
        for i in range(len(w)):
            s = products(alpha, i, minus[i], plus[i])
            values.extend(s[j] for j in picks)
    return min(values)
