"""A FLWOR subset of XQuery compiled to tree patterns.

Section 2 notes that KadoP's "algorithms extend easily to more complex
tree pattern queries, such as those that can be extracted from XQuery
queries [Chen et al., VLDB 2003]".  This module implements that
extraction for the FLWOR core::

    for $a in //article, $t in $a//title
    where $a//author contains "Ullman" and $t contains "xml"
    return $t

* each ``for`` binding contributes a path, absolute (``//article``) or
  relative to a previously bound variable (``$a//title``);
* ``where`` conjuncts are existence or ``contains`` predicates anchored at
  a variable;
* ``return $v(/path)?`` selects the output node.

The whole FLWOR compiles into a single
:class:`~repro.query.pattern.TreePattern` plus a projection: evaluation
reuses the ordinary distributed pipeline and projects the answers onto the
return node, with duplicate bindings collapsed (XQuery sequence
semantics).
"""

import re

from repro.errors import QueryParseError
from repro.query.pattern import Axis, PatternNode, TreePattern
from repro.query.xpath import _parse_path, _attach_words, _tokenize, _TokenCursor

_VAR_RE = re.compile(r"\$[A-Za-z_][\w]*")


class CompiledXQuery:
    """A FLWOR query compiled to a tree pattern + projection."""

    def __init__(self, pattern, output_node_id, variables, source):
        self.pattern = pattern
        self.output_node_id = output_node_id
        self.variables = variables  # var name -> node_id
        self.source = source

    def project(self, answers):
        """Project distributed answers onto the return node.

        Returns an ordered, duplicate-free list of
        ``(peer, doc, Posting)``."""
        seen = set()
        projected = []
        for answer in answers:
            posting = answer.binding_of(self.output_node_id)
            key = (answer.peer, answer.doc, posting)
            if key not in seen:
                seen.add(key)
                projected.append(key)
        return projected

    def __repr__(self):
        return "CompiledXQuery(%r)" % (self.source,)


def _split_clauses(text):
    """Split the FLWOR into for/where/return clause bodies."""
    match = re.match(
        r"\s*for\b(?P<bindings>.*?)(?:\bwhere\b(?P<where>.*?))?\breturn\b(?P<ret>.*)$",
        text,
        re.DOTALL,
    )
    if not match:
        raise QueryParseError("not a FLWOR query: %r" % text)
    return (
        match.group("bindings"),
        match.group("where") or "",
        match.group("ret").strip(),
    )


def _parse_path_text(path_text, keyword_steps=()):
    """Parse a path fragment (``//a/b[...]``) into pattern nodes."""
    cursor = _TokenCursor(_tokenize(path_text), path_text)
    root = _parse_path(cursor, {k.lower() for k in keyword_steps}, top_level=True)
    if not cursor.eof():
        raise QueryParseError("trailing tokens in path %r" % path_text)
    return root


def _spine_end(node):
    """The last step of a parsed path (the node a variable binds to)."""
    current = node
    while True:
        spine_children = [c for c in current.children if not c.is_word]
        if not spine_children:
            return current
        current = spine_children[-1]


def _var_and_path(fragment):
    """Split ``$v//rest`` into (var, path-text or None)."""
    fragment = fragment.strip()
    match = _VAR_RE.match(fragment)
    if not match:
        return None, fragment
    rest = fragment[match.end() :].strip()
    return match.group(0), rest or None


def compile_xquery(text, keyword_steps=()):
    """Compile a FLWOR query to a :class:`CompiledXQuery`."""
    bindings_text, where_text, return_text = _split_clauses(text)

    variables = {}  # var -> PatternNode (pre-renumbering)
    roots = []

    # -- for clause: comma-separated bindings ---------------------------------
    for binding in _split_top_level(bindings_text, ","):
        binding = binding.strip()
        match = re.match(r"(\$[\w]+)\s+in\s+(.*)$", binding, re.DOTALL)
        if not match:
            raise QueryParseError("bad for-binding %r" % binding)
        var, path_text = match.group(1), match.group(2).strip()
        if var in variables:
            raise QueryParseError("variable %s bound twice" % var)
        anchor_var, rel = _var_and_path(path_text)
        if anchor_var and rel is None:
            raise QueryParseError(
                "for-binding %s in %s needs a path step after the variable"
                % (var, anchor_var)
            )
        parsed = _parse_path_text(rel if anchor_var else path_text, keyword_steps)
        if anchor_var:
            anchor = variables.get(anchor_var)
            if anchor is None:
                raise QueryParseError("unbound variable %s" % anchor_var)
            anchor.add_child(parsed)
        else:
            roots.append(parsed)
        variables[var] = _spine_end(parsed)

    if len(roots) != 1:
        raise QueryParseError(
            "FLWOR must have exactly one absolute binding root, got %d"
            % len(roots)
        )

    # -- where clause ------------------------------------------------------------
    if where_text.strip():
        for cond in _split_top_level(where_text, " and "):
            _compile_condition(cond.strip(), variables, keyword_steps)

    # -- return clause --------------------------------------------------------------
    ret_var, ret_path = _var_and_path(return_text)
    if ret_var is None:
        raise QueryParseError("return clause must start with a variable")
    anchor = variables.get(ret_var)
    if anchor is None:
        raise QueryParseError("unbound variable %s in return" % ret_var)
    if ret_path:
        parsed = _parse_path_text(ret_path, keyword_steps)
        anchor.add_child(parsed)
        output_node = _spine_end(parsed)
    else:
        output_node = anchor

    pattern = TreePattern(roots[0], source=text)
    return CompiledXQuery(
        pattern,
        output_node.node_id,
        {var: node.node_id for var, node in variables.items()},
        text,
    )


def _compile_condition(cond, variables, keyword_steps):
    """``$v(/path)? (contains "w")?`` — existence or keyword predicate."""
    contains_match = re.match(
        r"(.*?)\bcontains\s+(\"[^\"]*\"|'[^']*')\s*$", cond, re.DOTALL
    )
    if contains_match:
        target_text = contains_match.group(1).strip()
        word = contains_match.group(2)[1:-1]
    else:
        target_text = cond
        word = None
    var, rel = _var_and_path(target_text)
    if var is None:
        raise QueryParseError("where condition must start with a variable: %r" % cond)
    anchor = variables.get(var)
    if anchor is None:
        raise QueryParseError("unbound variable %s in where" % var)
    if rel:
        parsed = _parse_path_text(rel, keyword_steps)
        anchor.add_child(parsed)
        target = _spine_end(parsed)
    else:
        target = anchor
    if word is not None:
        _attach_words(target, word)
    elif not rel:
        raise QueryParseError("vacuous where condition %r" % cond)


def _split_top_level(text, separator):
    """Split on ``separator`` outside brackets/quotes."""
    parts = []
    depth = 0
    quote = None
    current = []
    i = 0
    sep_len = len(separator)
    while i < len(text):
        ch = text[i]
        if quote:
            if ch == quote:
                quote = None
            current.append(ch)
            i += 1
            continue
        if ch in "\"'":
            quote = ch
            current.append(ch)
            i += 1
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and text[i : i + sep_len] == separator:
            parts.append("".join(current))
            current = []
            i += sep_len
            continue
        current.append(ch)
        i += 1
    parts.append("".join(current))
    return [p for p in parts if p.strip()]
