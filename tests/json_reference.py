"""A JSON layout's plain form: the reference for the CLI's QuadNum leaves.

json_tree() keeps each exact value as a QuadNum leaf, and the CLI's writer
renders the leaf as QuadNum.to_json's dict.  This module maps a tree to that
plain form, which json.dumps can write; tests compare the two.
"""

from inhomspec.quadfield import QuadNum


def _plain(tree, digits):
    """tree with each QuadNum leaf replaced by its to_json(digits) dict."""
    if isinstance(tree, QuadNum):
        return tree.to_json(digits)
    if isinstance(tree, dict):
        return {k: _plain(v, digits) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_plain(v, digits) for v in tree]
    return tree
