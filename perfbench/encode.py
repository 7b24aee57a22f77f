"""Text encodings for generated jobs, in the forms the CLI documents.

Field elements are integer indices 0..q-1 in base-p digit order, the order
`Fq` uses.  For prime q a polynomial becomes a t-string with integer
coefficients ("2*t^2+t+1"); otherwise it becomes bracket form with u-strings
("[u,0,1]"), which is what the CLI itself emits.  The t-string encoder is
deliberately not `poly_to_tstring`: for q = 4 that function emits "t+(1)",
which `parse_apoly` rejects, and the benchmark must not exercise that defect.
"""


def prime_of(q):
    for p in range(2, q + 1):
        if q % p == 0:
            return p
    raise ValueError("q must be at least 2")


def is_prime(q):
    return prime_of(q) == q


def element_ustring(idx, q):
    p = prime_of(q)
    digits = []
    while idx:
        digits.append(idx % p)
        idx //= p
    terms = []
    for k in range(len(digits) - 1, -1, -1):
        c = digits[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            var = "u" if k == 1 else "u^%d" % k
            terms.append(var if c == 1 else "%d*%s" % (c, var))
    return "+".join(terms) if terms else "0"


def poly_text(coeffs, q):
    """Encode a polynomial given as low-to-high element indices."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not is_prime(q):
        return "[%s]" % ",".join(element_ustring(c, q) for c in coeffs)
    if not coeffs:
        return "0"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
            continue
        var = "t" if k == 1 else "t^%d" % k
        terms.append(var if c == 1 else "%d*%s" % (c, var))
    return "+".join(terms)
