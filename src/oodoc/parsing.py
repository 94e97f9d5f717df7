"""Parser for the supported subset of a class-based OO language.

The parser builds the model's entities (model.ClassEntity and what it
owns) straight from the tokens, with every supertype name and relation
still unresolved; model.build_model collects them into a Project.

The subset covers: package declarations, imports, top-level class and
interface declarations, attributes (multiple declarators per statement),
constructors, methods with parameter lists and throws clauses, and method
bodies made of local variable declarations, assignments, call expressions,
field accesses and the if/else, for, while, switch, return and block
statements. Everything else inside a body, and an attribute initializer
outside the subset, is skipped with a warning; unsupported top-level
declarations (enums, generic types) are warned about and omitted.
Structural damage (unbalanced braces, malformed declaration headers) aborts
the file with a ParseFailure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ParseFailure
from .model import (
    AccessRelation,
    AttributeEntity,
    ClassEntity,
    InvocationRelation,
    LocalVariableEntity,
    MethodEntity,
    Parameter,
    TypeRef,
)

if TYPE_CHECKING:
    from .sources import SourceFile

_ACCESS_MODIFIERS = ("public", "protected", "private")
_MEMBER_FLAGS = ("static", "final", "abstract")
# statements we recognise well enough to refuse politely
_UNSUPPORTED_STATEMENT_KEYWORDS = {
    "do", "try", "catch", "finally", "throw", "synchronized", "assert",
}
# binary operator -> precedence level, loosest first
_BINARY_LEVELS = {
    "||": 0,
    "&&": 1,
    "==": 2, "!=": 2,
    "<": 3, ">": 3, "<=": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}

# One alternative per lexeme, tried in order at each position after the
# blanks before it (never a newline: newlines are counted). The classes keep
# the str predicates of the language rules: \s is isspace, \w is isalnum or
# "_", \d is isdecimal. A number whose digits run into a non-ASCII character
# (which may be a non-decimal digit such as "²") and any other character the
# alternatives miss fall to "other", which _lex_other decides one at a time.
# No possessive quantifiers (Python 3.11+): the number's lookahead fails on
# every shorter run of its digits, and "other" never takes a blank, so
# backtracking cannot change a match; at the end of the text there is none.
_TOKEN_RE = re.compile(
    r"""
    [^\S\n]*
    (?:
      (?P<ident>[A-Za-z_$][\w$]*)
    | (?P<newline>\n\s*)
    | (?P<comment>//[^\n]*)
    | (?P<block>/\*)
    | (?P<punct>\.\.\.|->|[=!<>]=|&&|\|\||\+\+|--|[-+*/%]=|[-+*/%<>=!&|^~?:.,;(){}\[\]@])
    | (?P<number>[0-9][\d.]*(?![\d.]|[^\x00-\x7f])[fFdDlL]?)
    | (?P<string>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
    | (?P<char>'[^'\\\n]*(?:\\.[^'\\\n]*)*')
    | (?P<other>\S)
    )
    """,
    re.VERBOSE,
)
_IDENT_TAIL_RE = re.compile(r"[\w$]*")


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind  # ident | number | string | char | punct | eof
        self.text = text
        self.line = line

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.kind, self.text, self.line) == (other.kind, other.text, other.line)

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.line))

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.line})"


@dataclass(frozen=True)
class ParseWarning:
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


@dataclass
class FileSyntaxTree:
    path: str
    package_name: str
    imports: list[str]  # shared by the classes, for name resolution
    classes: list[ClassEntity]  # relations and supertypes unresolved
    warnings: list[ParseWarning] = field(default_factory=list)
    loc: int = 0  # lines that hold a token


class _Unsupported(Exception):
    """Statement-level construct outside the subset; recoverable."""

    def __init__(self, line: int, what: str):
        super().__init__(what)
        self.line = line
        self.what = what


def tokenize(text: str, path: str) -> list[Token]:
    """Split text into tokens, one master-regex match per lexeme.

    Comments and blanks produce no token; the list ends with one eof token.
    LF, CR and CR LF each end a line (JLS 3.4), and a string or char literal
    must close on its own line (JLS 3.10.5).
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    line = 1
    pos = 0
    while (m := match(text, pos)) is not None:
        kind = m.lastgroup
        pos = m.end()
        if kind == "newline":
            line += m.group().count("\n")
        elif kind == "block":
            end = text.find("*/", pos)
            if end < 0:
                raise ParseFailure(path, line, "unterminated block comment")
            line += text.count("\n", pos, end)
            pos = end + 2
        elif kind == "other":
            token = _lex_other(text, pos - 1, path, line)
            append(token)
            pos += len(token.text) - 1
        elif kind != "comment":
            append(Token(kind, m.group(kind), line))
    append(Token("eof", "", line))
    return tokens


def _lex_other(text: str, start: int, path: str, line: int) -> Token:
    """The token at a character the master regex leaves to code."""
    c = text[start]
    if c.isdigit():
        j = start + 1
        while j < len(text) and (text[j].isdigit() or text[j] == "."):
            j += 1
        if j < len(text) and text[j] in "fFdDlL":
            j += 1
        return Token("number", text[start:j], line)
    if c.isalpha():
        end = _IDENT_TAIL_RE.match(text, start + 1).end()
        return Token("ident", text[start:end], line)
    if c in "\"'":
        raise ParseFailure(path, line, "unterminated literal")
    raise ParseFailure(path, line, f"unexpected character {c!r}")


def count_token_lines(tokens: list[Token]) -> int:
    """LoC of one file: the number of distinct lines that hold a token."""
    return len({tok.line for tok in tokens if tok.kind != "eof"})


def parse_file(file: SourceFile) -> FileSyntaxTree:
    """Parse one source file into its classes, unresolved, and its LoC."""
    tokens = tokenize(file.text, file.path)
    try:
        tree = _Parser(tokens, file.path).parse_compilation_unit()
    except RecursionError:
        raise ParseFailure(file.path, 1, "nesting too deep to parse") from None
    tree.loc = count_token_lines(tokens)
    return tree


def parse_files(files: list[SourceFile]) -> tuple[list[FileSyntaxTree], list[ParseFailure]]:
    """Parse many files in input order, isolating per-file failures."""
    trees: list[FileSyntaxTree] = []
    failures: list[ParseFailure] = []
    for f in files:
        try:
            trees.append(parse_file(f))
        except ParseFailure as exc:
            # its traceback, and that of an error it was raised while
            # handling, would keep the file's text, tokens and parser alive
            exc.__context__ = None
            failures.append(exc.with_traceback(None))
    return trees, failures


class _Parser:
    def __init__(self, tokens: list[Token], path: str):
        # a second eof lets peek(1) index past the end without a bounds check
        self.tokens = tokens + tokens[-1:]
        self.path = path
        self.pos = 0
        self.warnings: list[ParseWarning] = []

    # -- token helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind in ("punct", "ident")

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r} but found {tok.text!r}", tok.line)
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected an identifier but found {tok.text!r}", tok.line)
        return self.advance()

    def fail(self, message: str, line: int | None = None):
        raise ParseFailure(self.path, line if line is not None else self.peek().line, message)

    def warn(self, message: str, line: int):
        self.warnings.append(ParseWarning(self.path, line, message))

    def expect_after_expression(self, text: str):
        """Consume text, which must follow an expression in a body or an
        attribute initializer.

        An expression stops at the first token its grammar cannot take, so
        another token there (the "x1F" of "0x1F", the "x" of "(int) x",
        "instanceof") is a construct outside the subset. A brace or the end
        of the file there is structural damage and stays a ParseFailure.
        """
        tok = self.peek()
        if tok.text != text and tok.text not in ("{", "}", ""):
            raise _Unsupported(tok.line, f"token {tok.text!r} in expression")
        self.expect(text)

    # -- compilation unit ----------------------------------------------

    def parse_compilation_unit(self) -> FileSyntaxTree:
        package_name = ""
        imports: list[str] = []
        classes: list[ClassEntity] = []
        if self.at("package"):
            self.advance()
            package_name = self._dotted_name()
            self.expect(";")
        while self.at("import"):
            line = self.peek().line
            self.advance()
            if self.at("static"):
                self.warn("static imports are not supported; import skipped", line)
                self._skip_to_semicolon()
                continue
            name = self._dotted_name(allow_star=True)
            self.expect(";")
            imports.append(name)
        while not self.at_kind("eof"):
            if self.at("package"):
                self.fail("only one package declaration is allowed per file")
            cls = self._parse_type_decl(imports)
            if cls is not None:
                classes.append(cls)
        return FileSyntaxTree(self.path, package_name, imports, classes, self.warnings)

    def _dotted_name(self, allow_star: bool = False) -> str:
        parts = [self.expect_ident().text]
        while self.at("."):
            self.advance()
            if allow_star and self.at("*"):
                self.advance()
                parts.append("*")
                break
            parts.append(self.expect_ident().text)
        return ".".join(parts)

    # -- type declarations ----------------------------------------------

    def _parse_type_decl(self, imports: list[str]) -> ClassEntity | None:
        line = self.peek().line
        while self.at("@"):
            self._skip_annotation()
        mods = self._parse_modifiers(context="type declaration")
        if self.at("enum"):
            self.warn("enum declarations are not supported; declaration skipped", self.peek().line)
            self._skip_declaration()
            return None
        if not (self.at("class") or self.at("interface")):
            self.fail(f"expected a class or interface declaration, found {self.peek().text!r}")
        is_interface = self.advance().text == "interface"
        name = self.expect_ident().text
        if self.at("<"):
            self.warn(f"generic type {name} is not supported; declaration skipped", line)
            self._skip_declaration()
            return None
        if mods["access"] in ("protected", "private"):
            self.fail(f"{mods['access']} is not a valid top-level access level", line)
        cls = ClassEntity(
            name=name,
            access_level="public" if mods["access"] == "public" else "package-private",
            is_interface=is_interface,
            imports=imports,
        )
        interfaces = cls.super_interfaces
        if self.at("extends"):
            self.advance()
            first = TypeRef(self._dotted_name())
            if not is_interface:
                cls.superclass = first
                if self.at(","):
                    self.fail("a class can extend only one superclass")
            else:
                interfaces.append(first)
                while self.at(","):
                    self.advance()
                    interfaces.append(TypeRef(self._dotted_name()))
        if self.at("implements"):
            if is_interface:
                self.fail("an interface cannot declare implements")
            self.advance()
            interfaces.append(TypeRef(self._dotted_name()))
            while self.at(","):
                self.advance()
                interfaces.append(TypeRef(self._dotted_name()))
        self.expect("{")
        self._parse_members(cls)
        self.expect("}")
        return cls

    def _parse_modifiers(self, context: str) -> dict:
        access = ""
        flags: set[str] = set()
        while True:
            tok = self.peek()
            if tok.kind != "ident":
                break
            if tok.text in _ACCESS_MODIFIERS:
                if access:
                    self.fail(f"conflicting access modifiers in {context}", tok.line)
                access = tok.text
                self.advance()
            elif tok.text in _MEMBER_FLAGS:
                flags.add(tok.text)
                self.advance()
            else:
                break
        return {"access": access, "flags": flags}

    def _member_access(self, mods: dict) -> str:
        return mods["access"] if mods["access"] else "package-private"

    def _parse_members(self, cls: ClassEntity):
        """Append the members up to the closing brace to cls, in order."""
        while True:
            if self.at("}") or self.at_kind("eof"):
                return
            if self.at(";"):
                self.advance()
                continue
            if self.at("@"):
                self._skip_annotation()
                continue
            line = self.peek().line
            mods = self._parse_modifiers(context="member declaration")
            if self.at("class") or self.at("interface") or self.at("enum"):
                self.warn("nested type declarations are not supported; member skipped", line)
                self._skip_declaration()
                continue
            tok = self.peek()
            if tok.kind != "ident":
                self.fail(f"malformed member declaration, found {tok.text!r}", tok.line)
            if tok.text == cls.name and self.peek(1).text == "(":
                self.advance()
                self._parse_method(cls, cls.name, None, mods)
                continue
            declared_type = self._parse_type_use(for_member=True)
            if declared_type is None:
                continue  # generic member skipped, warning already recorded
            name_tok = self.peek()
            if name_tok.kind != "ident":
                self.fail(f"malformed member declaration, found {name_tok.text!r}", name_tok.line)
            name = self.advance().text
            if self.at("("):
                self._parse_method(cls, name, declared_type, mods)
            else:
                self._parse_attribute_declarators(cls, name, declared_type, mods)

    def _parse_type_use(self, for_member: bool = False) -> str | None:
        """A type name: dotted identifiers plus [] suffixes.

        Returns None (with a warning) when the type carries generics and
        for_member is set, after skipping the whole member.
        """
        line = self.peek().line
        name = self._dotted_name()
        if self.at("<"):
            if for_member:
                self.warn("generic member declarations are not supported; member skipped", line)
                self._skip_declaration()
                return None
            raise _Unsupported(line, "generic type use")
        while self.at("[") and self.peek(1).text == "]":
            self.advance()
            self.advance()
            name += "[]"
        return name

    def _parse_attribute_declarators(
        self, cls: ClassEntity, first_name: str, declared_type: str, mods: dict
    ):
        access_level = self._member_access(mods)
        is_static = "static" in mods["flags"]
        name = first_name
        while True:
            decl_type = declared_type
            while self.at("[") and self.peek(1).text == "]":
                self.advance()
                self.advance()
                decl_type += "[]"
            cls.attributes.append(AttributeEntity(name, decl_type, access_level, is_static))
            if self.at("="):
                self.advance()
                start = self.pos
                try:
                    # the initializer's harvest is discarded
                    self._parse_expression(MethodEntity("", None))
                    if not self.at(","):
                        self.expect_after_expression(";")
                        return
                except _Unsupported as exc:
                    self.warn(f"unsupported attribute initializer ({exc.what}); skipped", exc.line)
                    # from the start, so that brackets the error left open are matched
                    self.pos = start
                    self._skip_to_declarator_boundary()
            if self.at(","):
                self.advance()
                name = self.expect_ident().text
                continue
            self.expect(";")
            return

    def _parse_method(self, cls: ClassEntity, name: str, return_type: str | None, mods: dict):
        """Append the method or constructor (return_type None) to cls,
        unless its header is outside the subset."""
        method = MethodEntity(
            name,
            return_type,
            self._member_access(mods),
            is_static="static" in mods["flags"],
            is_constructor=return_type is None,
        )
        parameters = method.parameters
        self.expect("(")
        if not self.at(")"):
            while True:
                if self.at("..."):
                    self.warn(f"varargs are not supported; method {name} skipped", self.peek().line)
                    self._recover_from_member_header()
                    return
                try:
                    ptype = self._parse_type_use()
                except _Unsupported:
                    self.warn(f"unsupported parameter type; method {name} skipped", self.peek().line)
                    self._recover_from_member_header()
                    return
                if self.at("..."):
                    self.warn(f"varargs are not supported; method {name} skipped", self.peek().line)
                    self._recover_from_member_header()
                    return
                pname = self.expect_ident().text
                while self.at("[") and self.peek(1).text == "]":
                    self.advance()
                    self.advance()
                    ptype += "[]"
                parameters.append(Parameter(pname, ptype, len(parameters)))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        if self.at("throws"):
            self.advance()
            method.throws.append(self._dotted_name())
            while self.at(","):
                self.advance()
                method.throws.append(self._dotted_name())
        if self.at(";"):
            self.advance()
        elif self.at("{"):
            if cls.is_interface:
                # harvest is defined for class bodies only; skip the block
                self.warn("interface method bodies are ignored", self.peek().line)
                self._skip_balanced_block()
            else:
                self.advance()
                self._parse_block(method)
                self.expect("}")
        else:
            self.fail(f"expected a method body or ';' after {name}", self.peek().line)
        cls.methods.append(method)

    # -- statements ------------------------------------------------------
    # Each appends what it harvests to the method it is given: local
    # variables, invocations and attribute accesses, each in source order.

    def _parse_block(self, method: MethodEntity):
        while not self.at("}") and not self.at_kind("eof"):
            try:
                self._parse_statement(method)
            except _Unsupported as exc:
                self._warn_unsupported(exc)
                self._skip_statement_tokens()

    def _warn_unsupported(self, exc: _Unsupported):
        self.warn(f"unsupported construct ({exc.what}); statement skipped", exc.line)

    def _parse_statement(self, method: MethodEntity):
        tok = self.peek()
        if tok.kind == "punct":
            if tok.text == "{":
                self.advance()
                self._parse_block(method)
                self.expect("}")
                return
            if tok.text == ";":
                self.advance()
                return
            if tok.text == "@":
                raise _Unsupported(tok.line, "annotation")
        if tok.kind == "ident":
            if tok.text in _UNSUPPORTED_STATEMENT_KEYWORDS:
                raise _Unsupported(tok.line, f"'{tok.text}' statement")
            if tok.text == "if":
                self.advance()
                self.expect("(")
                self._parse_expression(method)
                self.expect_after_expression(")")
                self._parse_statement(method)
                if self.at("else"):
                    self.advance()
                    self._parse_statement(method)
                return
            if tok.text == "while":
                self.advance()
                self.expect("(")
                self._parse_expression(method)
                self.expect_after_expression(")")
                self._parse_statement(method)
                return
            if tok.text == "for":
                self._parse_for(method)
                return
            if tok.text == "switch":
                self._parse_switch(method)
                return
            if tok.text == "return":
                self.advance()
                if not self.at(";"):
                    self._parse_expression(method)
                self.expect_after_expression(";")
                return
            if tok.text in ("break", "continue"):
                self.advance()
                self.expect(";")
                return
        if self._looks_like_declaration():
            self._parse_local_declaration(method)
            self.expect_after_expression(";")
            return
        self._parse_expression(method)
        # unlike in expect_after_expression, a brace or the end of the file
        # is skipped here too, so "a = b }" parses with a warning
        if not self.at(";"):
            raise _Unsupported(self.peek().line, f"token {self.peek().text!r} in expression")
        self.expect(";")

    def _parse_for(self, method: MethodEntity):
        """A header outside the subset costs a warning and the header only:
        it is skipped to its matching ')', and the body is parsed."""
        line = self.advance().line
        header = self.pos
        try:
            self._parse_for_header(method, line)
        except _Unsupported as exc:
            self._warn_unsupported(exc)
            self.pos = header
            self._skip_balanced("(", ")")
        self._parse_statement(method)

    def _parse_for_header(self, method: MethodEntity, line: int):
        self.expect("(")
        if not self.at(";"):
            if self._looks_like_declaration():
                self._parse_local_declaration(method)
                if self.at(":"):
                    raise _Unsupported(line, "enhanced for loop")
            else:
                self._parse_expression(method)
        self.expect_after_expression(";")
        if not self.at(";"):
            self._parse_expression(method)
        self.expect_after_expression(";")
        if not self.at(")"):
            self._parse_expression(method)
            while self.at(","):
                self.advance()
                self._parse_expression(method)
        self.expect_after_expression(")")

    def _parse_switch(self, method: MethodEntity):
        self.advance()
        self.expect("(")
        self._parse_expression(method)
        self.expect_after_expression(")")
        self.expect("{")
        while not self.at("}"):
            if self.at_kind("eof"):
                self.fail("unexpected end of file inside switch")
            if self.at("case"):
                self.advance()
                while not self.at(":"):
                    if self.at_kind("eof"):
                        self.fail("unexpected end of file inside case label")
                    self.advance()
                self.expect(":")
                continue
            if self.at("default"):
                self.advance()
                self.expect(":")
                continue
            try:
                self._parse_statement(method)
            except _Unsupported as exc:
                self._warn_unsupported(exc)
                self._skip_statement_tokens()
        self.expect("}")

    def _looks_like_declaration(self) -> bool:
        """Lookahead: IDENT(.IDENT)*([])* IDENT followed by = , ; or [."""
        i = self.pos
        toks = self.tokens

        def kindtext(j):
            t = toks[j]
            return t.kind, t.text

        k, _ = kindtext(i)
        if k != "ident":
            return False
        i += 1
        while True:
            k, t = kindtext(i)
            if k == "punct" and t == "." and kindtext(i + 1)[0] == "ident":
                i += 2
                continue
            break
        while kindtext(i) == ("punct", "[") and kindtext(i + 1) == ("punct", "]"):
            i += 2
        k, _ = kindtext(i)
        if k != "ident":
            return False
        i += 1
        while kindtext(i) == ("punct", "[") and kindtext(i + 1) == ("punct", "]"):
            i += 2
        k, t = kindtext(i)
        return (k, t) in (("punct", "="), ("punct", ","), ("punct", ";"), ("punct", ":"))

    def _parse_local_declaration(self, method: MethodEntity):
        declared_type = self._parse_type_use()
        while True:
            name = self.expect_ident().text
            decl_type = declared_type
            while self.at("[") and self.peek(1).text == "]":
                self.advance()
                self.advance()
                decl_type += "[]"
            method.local_variables.append(LocalVariableEntity(name, decl_type))
            if self.at("="):
                self.advance()
                self._parse_expression(method)
            if self.at(","):
                self.advance()
                continue
            return

    # -- expressions -------------------------------------------------------

    def _parse_expression(self, method: MethodEntity) -> str:
        text = self._parse_binary(method)
        tok = self.peek()
        if tok.text == "=" and tok.kind == "punct":
            self.advance()
            rhs = self._parse_expression(method)
            return f"{text} = {rhs}"
        if tok.kind == "punct" and tok.text in ("+=", "-=", "*=", "/=", "%=", "?", "->", "++", "--"):
            raise _Unsupported(tok.line, f"operator {tok.text!r}")
        return text

    def _parse_binary(self, method: MethodEntity, min_level: int = 0) -> str:
        """Left-associative binary operators by precedence climbing."""
        text = self._parse_unary(method)
        while True:
            # only punct tokens can carry an operator's text
            op = self.tokens[self.pos].text
            level = _BINARY_LEVELS.get(op)
            if level is None or level < min_level:
                return text
            self.pos += 1
            rhs = self._parse_binary(method, level + 1)
            text = f"{text} {op} {rhs}"

    def _parse_unary(self, method: MethodEntity) -> str:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in ("!", "-", "+"):
            self.advance()
            return tok.text + self._parse_unary(method)
        if tok.kind == "punct" and tok.text in ("++", "--", "~"):
            raise _Unsupported(tok.line, f"operator {tok.text!r}")
        return self._parse_postfix(method)

    def _parse_postfix(self, method: MethodEntity) -> str:
        text = self._parse_primary(method)
        pending: tuple[str, str] | None = None  # (field name, receiver text)
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "." and self.peek(1).kind == "ident":
                self.advance()
                name_tok = self.advance()
                if self.at("("):
                    # a call consumes everything before it as receiver path
                    pending = None
                    self._parse_arguments(method)
                    method.invocations.append(InvocationRelation(name_tok.text, text))
                    text = f"{text}.{name_tok.text}()"
                else:
                    pending = (name_tok.text, text)
                    text = f"{text}.{name_tok.text}"
                continue
            if tok.kind == "punct" and tok.text == "[":
                self.advance()
                self._parse_expression(method)
                self.expect_after_expression("]")
                text = f"{text}[]"
                continue
            break
        if pending is not None:
            method.accesses.append(AccessRelation(*pending))
        return text

    def _parse_arguments(self, method: MethodEntity):
        self.expect("(")
        if not self.at(")"):
            while True:
                self._parse_expression(method)
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect_after_expression(")")

    def _parse_primary(self, method: MethodEntity) -> str:
        tok = self.peek()
        if tok.kind in ("number", "string", "char"):
            self.advance()
            return tok.text
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            self._parse_expression(method)
            self.expect_after_expression(")")
            return "(...)"
        if tok.kind == "ident":
            if tok.text == "new":
                return self._parse_creation(method)
            if tok.text == "this":
                if self.peek(1).text == "(":
                    raise _Unsupported(tok.line, "this(...) constructor delegation")
                self.advance()
                return "this"
            if tok.text == "super":
                if self.peek(1).text == "(":
                    raise _Unsupported(tok.line, "super(...) constructor call")
                self.advance()
                return "super"
            self.advance()
            if self.at("("):
                self._parse_arguments(method)
                method.invocations.append(InvocationRelation(tok.text, ""))
                return f"{tok.text}()"
            return tok.text
        raise _Unsupported(tok.line, f"token {tok.text!r} in expression")

    def _parse_creation(self, method: MethodEntity) -> str:
        new_tok = self.advance()
        type_name = self._dotted_name()
        if self.at("<"):
            raise _Unsupported(new_tok.line, "generic object creation")
        if self.at("("):
            self._parse_arguments(method)
            if self.at("{"):
                raise _Unsupported(new_tok.line, "anonymous class body")
            simple = type_name.rsplit(".", 1)[-1]
            method.invocations.append(InvocationRelation(simple, type_name))
            return f"new {type_name}()"
        if self.at("["):
            while self.at("["):
                self.advance()
                if not self.at("]"):
                    self._parse_expression(method)
                self.expect_after_expression("]")
            if self.at("{"):
                raise _Unsupported(new_tok.line, "array initializer")
            return f"new {type_name}[]"
        raise _Unsupported(new_tok.line, "malformed object creation")

    # -- recovery helpers ----------------------------------------------

    def _skip_to_semicolon(self):
        while not self.at_kind("eof"):
            tok = self.advance()
            if tok.kind == "punct" and tok.text == ";":
                return

    def _skip_annotation(self):
        line = self.expect("@").line
        self.warn("annotations are not supported; annotation skipped", line)
        self._dotted_name()
        if self.at("("):
            self._skip_balanced("(", ")")

    def _skip_balanced(self, open_text: str, close_text: str):
        depth = 0
        start = self.peek().line
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                self.fail(f"unexpected end of file (unbalanced {open_text!r})", start)
            self.advance()
            if tok.kind == "punct":
                if tok.text == open_text:
                    depth += 1
                elif tok.text == close_text:
                    depth -= 1
                    if depth == 0:
                        return

    def _skip_balanced_block(self):
        self._skip_balanced("{", "}")

    def _skip_declaration(self):
        """Consume a declaration we chose not to model: through its block or ';'."""
        while not self.at_kind("eof"):
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "{":
                self._skip_balanced_block()
                return
            if tok.kind == "punct" and tok.text == ";":
                self.advance()
                return
            self.advance()
        self.fail("unexpected end of file inside skipped declaration")

    def _recover_from_member_header(self):
        """Abandon a member after its header failed: eat params, throws, body."""
        depth = 1  # the already-consumed '('
        while depth > 0:
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("unexpected end of file (unbalanced parentheses)")
            self.advance()
            if tok.kind == "punct":
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    depth -= 1
        self._skip_declaration()

    def _skip_statement_tokens(self):
        """Recover after an unsupported statement: to ';' or past one block."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "punct":
                if tok.text == "}" and depth == 0:
                    return
                if tok.text == "{":
                    depth += 1
                elif tok.text == "}":
                    depth -= 1
                    if depth == 0:
                        self.advance()
                        return
                elif tok.text == ";" and depth == 0:
                    self.advance()
                    return
            self.advance()

    def _skip_to_declarator_boundary(self):
        """After a bad initializer: stop before ',' or ';' at depth zero."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "punct":
                if tok.text in ("(", "[", "{"):
                    depth += 1
                elif tok.text in (")", "]", "}"):
                    if depth == 0:
                        return
                    depth -= 1
                elif tok.text in (",", ";") and depth == 0:
                    return
            self.advance()
