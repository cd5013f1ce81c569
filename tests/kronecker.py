"""Kronecker reference for the tensor models shared by the tests: a word's
moments read off the full product of its embedded letters."""


def kron_word_moments(model, ops, kind):
    """(trace, [0, 0] entry) of the product of the operators ops, each a
    (slot, matrix) pair embedded by model.boolean_embed or model.monotone_embed."""
    embed = {"boolean": model.boolean_embed, "monotone": model.monotone_embed}[kind]
    big = None
    for slot, a in ops:
        factor = embed(slot, a)
        big = factor if big is None else big.dot(factor)
    return big.trace(), big[0, 0]
