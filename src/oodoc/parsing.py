"""Parser for the supported subset of a class-based OO language.

The parser builds the model's entities (model.ClassEntity and what it
owns) straight from the tokens, with every supertype name and relation
still unresolved; model.build_model collects them into a Project.

The subset covers: package declarations, imports, top-level class and
interface declarations, attributes (multiple declarators per statement),
constructors, methods with parameter lists and throws clauses, and method
bodies made of local variable declarations, assignments, call expressions,
field accesses and the if/else, for, while, switch, return and block
statements. Parameters and locals may be final, a top-level type may be
abstract or final, and members may carry the flags static, final,
abstract, transient, volatile, native, synchronized and default. An
annotation on a declaration, a member or a parameter costs itself and a
warning. Any other construct outside the subset costs the
smallest of five units that holds it, with one warning: a top-level
declaration (an enum, a generic type), a member (a nested type, an
initializer block, type arguments, varargs), an attribute initializer (the
attribute stays), a for header (the body is still parsed) or a statement (a
switch with an arrow case label is skipped whole).

Every skip is _Parser._skip, which matches (), [] and {} together. A
statement is skipped from its first token, a declaration or a member from
where its parse stopped, through a ';' or through a { } block that nothing
goes on from: an else, catch or finally clause, a selector or a ';' after
the block goes on. An initializer is skipped up to its ',' or ';'; when its
';' is missing, the skip ends after such a block and so does the
declaration. A for header is skipped through its ')', a failed parameter
list up to its ')' or a '{'. Inside a statement, a '(' or '[' that never
closes makes the skip run to the end of the enclosing block.
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
_MEMBER_FLAGS = ("static", "final", "abstract", "transient", "volatile", "native", "synchronized", "default")
_TYPE_FLAGS = ("abstract", "final")
# statements we recognise well enough to refuse politely
_UNSUPPORTED_STATEMENT_KEYWORDS = {
    "do", "try", "catch", "finally", "throw", "synchronized", "assert",
}
# a receiver that calls a constructor instead -> what it costs
_CONSTRUCTOR_CALLS = {"this": "this(...) constructor delegation", "super": "super(...) constructor call"}
# brackets, for recovery: a closer also closes the weaker ones open inside it
_STRENGTH = {"[": 0, "(": 1, "{": 2}
_OPENER_OF = {"]": "[", ")": "(", "}": "{"}
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
    """A construct outside the subset: the unit whose parse catches it (a
    top-level declaration, a member, an attribute initializer, a for header
    or a statement) is skipped with one warning, and the file is kept. For a
    declaration or a member, what is the whole warning."""

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
        # no two kinds share a text: an identifier starts with a letter, "_"
        # or "$", a number with a digit, a literal with its quote, and eof
        # is the empty text
        return self.tokens[self.pos].text == text

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
                self._skip("statement")
                continue
            name = self._dotted_name(allow_star=True)
            self.expect(";")
            imports.append(name)
        while not self.at_kind("eof"):
            if self.at("package"):
                self.fail("only one package declaration is allowed per file")
            try:
                classes.append(self._parse_type_decl(imports))
            except _Unsupported as exc:
                self.warn(exc.what, exc.line)
                self._skip("statement")
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

    def _dotted_names(self) -> list[str]:
        """A comma-separated list of dotted names."""
        names = [self._dotted_name()]
        while self.at(","):
            self.advance()
            names.append(self._dotted_name())
        return names

    # -- type declarations ----------------------------------------------

    def _parse_type_decl(self, imports: list[str]) -> ClassEntity:
        line = self.peek().line
        while self.at("@"):
            self._skip_annotation()
        access, _ = self._parse_modifiers("type declaration", _TYPE_FLAGS)
        if self.at("enum"):
            raise _Unsupported(self.peek().line, "enum declarations are not supported; declaration skipped")
        if not (self.at("class") or self.at("interface")):
            self.fail(f"expected a class or interface declaration, found {self.peek().text!r}")
        is_interface = self.advance().text == "interface"
        name = self.expect_ident().text
        if self.at("<"):
            raise _Unsupported(line, f"generic type {name} is not supported; declaration skipped")
        if access in ("protected", "private"):
            self.fail(f"{access} is not a valid top-level access level", line)
        cls = ClassEntity(name=name, access_level=access, is_interface=is_interface, imports=imports)
        if self.at("extends"):
            self.advance()
            if is_interface:
                cls.super_interfaces.extend(map(TypeRef, self._dotted_names()))
            else:
                cls.superclass = TypeRef(self._dotted_name())
                if self.at(","):
                    self.fail("a class can extend only one superclass")
        if self.at("implements"):
            if is_interface:
                self.fail("an interface cannot declare implements")
            self.advance()
            cls.super_interfaces.extend(map(TypeRef, self._dotted_names()))
        self.expect("{")
        self._parse_members(cls)
        self.expect("}")
        return cls

    def _parse_modifiers(self, context: str, flags: tuple[str, ...]) -> tuple[str, bool]:
        """Consume the access modifiers and the flags that context allows;
        return the access level and whether one of them is static."""
        access = ""
        is_static = False
        while True:
            tok = self.peek()
            if tok.text in _ACCESS_MODIFIERS:
                if access:
                    self.fail(f"conflicting access modifiers in {context}", tok.line)
                access = tok.text
            elif tok.text in flags:
                is_static = is_static or tok.text == "static"
            else:
                return access or "package-private", is_static
            self.advance()

    def _parse_members(self, cls: ClassEntity):
        """Append the members up to the closing brace to cls, in order."""
        while not (self.at("}") or self.at_kind("eof")):
            try:
                self._parse_member(cls)
            except _Unsupported as exc:
                self.warn(exc.what, exc.line)
                self._skip("statement")

    def _parse_member(self, cls: ClassEntity):
        if self.at(";"):
            self.advance()
            return
        if self.at("@"):
            self._skip_annotation()
            return
        line = self.peek().line
        mods = self._parse_modifiers("member declaration", _MEMBER_FLAGS)
        if self.at("class") or self.at("interface") or self.at("enum"):
            raise _Unsupported(line, "nested type declarations are not supported; member skipped")
        if self.at("{"):
            raise _Unsupported(line, "initializer blocks are not supported; member skipped")
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"malformed member declaration, found {tok.text!r}", tok.line)
        if tok.text == cls.name and self.peek(1).text == "(":
            self.advance()
            self._parse_method(cls, cls.name, None, mods)
            return
        try:
            declared_type = self._parse_type_use()
        except _Unsupported as exc:
            raise _Unsupported(exc.line, "generic member declarations are not supported; member skipped")
        name_tok = self.peek()
        if name_tok.kind != "ident":
            self.fail(f"malformed member declaration, found {name_tok.text!r}", name_tok.line)
        name = self.advance().text
        if self.at("("):
            self._parse_method(cls, name, declared_type, mods)
        else:
            self._parse_attribute_declarators(cls, name, declared_type, mods)

    def _parse_type_use(self) -> str:
        """A type name: dotted identifiers plus [] suffixes."""
        line = self.peek().line
        name = self._dotted_name()
        if self.at("<"):
            raise _Unsupported(line, "generic type use")
        return name + self._array_suffix()

    def _pairs_end(self, i: int) -> int:
        """The index after the [] pairs that start at token i."""
        toks = self.tokens
        while toks[i].text == "[" and toks[i + 1].text == "]":
            i += 2
        return i

    def _array_suffix(self) -> str:
        """Consume the [] pairs after a type or a declarator; return them."""
        start, self.pos = self.pos, self._pairs_end(self.pos)
        return "[]" * ((self.pos - start) // 2)

    def _parse_attribute_declarators(
        self, cls: ClassEntity, first_name: str, declared_type: str, mods: tuple[str, bool]
    ):
        name = first_name
        while True:
            decl_type = declared_type + self._array_suffix()
            cls.attributes.append(AttributeEntity(name, decl_type, *mods))
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
                    self._skip("declarator")
                    if not (self.at(",") or self.at(";")):
                        return  # the skip ended after a block: the ';' is missing
            if self.at(","):
                self.advance()
                name = self.expect_ident().text
                continue
            self.expect(";")
            return

    def _parse_method(self, cls: ClassEntity, name: str, return_type: str | None, mods: tuple[str, bool]):
        """Append the method or constructor (return_type None) to cls; a
        header outside the subset raises _Unsupported instead."""
        method = MethodEntity(name, return_type, *mods, is_constructor=return_type is None)
        parameters = method.parameters
        self.expect("(")
        try:
            if not self.at(")"):
                while True:
                    while self.at("@") or self.at("final"):
                        if self.at("@"):
                            self._skip_annotation()
                        else:
                            self.advance()
                    # before the type too, so that "f(... x)" costs the method only
                    if self.at("..."):
                        raise _Unsupported(self.peek().line, f"varargs are not supported; method {name} skipped")
                    try:
                        ptype = self._parse_type_use()
                    except _Unsupported:
                        raise _Unsupported(self.peek().line, f"unsupported parameter type; method {name} skipped")
                    if self.at("..."):
                        raise _Unsupported(self.peek().line, f"varargs are not supported; method {name} skipped")
                    pname = self.expect_ident().text
                    parameters.append(Parameter(pname, ptype + self._array_suffix(), len(parameters)))
                    if self.at(","):
                        self.advance()
                        continue
                    break
        except _Unsupported:
            self._skip("list")
            raise
        self.expect(")")
        if self.at("throws"):
            self.advance()
            method.throws.extend(self._dotted_names())
        if self.at(";"):
            self.advance()
        elif self.at("{"):
            if cls.is_interface:
                # harvest is defined for class bodies only; skip the block
                self.warn("interface method bodies are ignored", self.peek().line)
                self._skip("group")
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
            self._parse_or_skip_statement(method)

    def _parse_or_skip_statement(self, method: MethodEntity):
        start = self.pos
        try:
            self._parse_statement(method)
        except _Unsupported as exc:
            self._warn_unsupported(exc)
            # from the start, so that brackets the error left open are matched
            self.pos = start
            self._skip("statement")

    def _warn_unsupported(self, exc: _Unsupported):
        self.warn(f"unsupported construct ({exc.what}); statement skipped", exc.line)

    def _parse_statement(self, method: MethodEntity):
        tok = self.peek()
        text = tok.text
        if text == "{":
            self.advance()
            self._parse_block(method)
            self.expect("}")
            return
        if text == ";":
            self.advance()
            return
        if text == "@":
            raise _Unsupported(tok.line, "annotation")
        if text in _UNSUPPORTED_STATEMENT_KEYWORDS:
            raise _Unsupported(tok.line, f"'{text}' statement")
        if text in ("if", "while"):
            self.advance()
            self._parse_parenthesized(method)
            self._parse_statement(method)
            if text == "if" and self.at("else"):
                self.advance()
                self._parse_statement(method)
            return
        if text == "for":
            self._parse_for(method)
            return
        if text == "switch":
            self._parse_switch(method)
            return
        if text == "return":
            self.advance()
            if not self.at(";"):
                self._parse_expression(method)
            self.expect_after_expression(";")
            return
        if text in ("break", "continue"):
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
            self._skip("group")
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
        self._parse_expression_list(method)

    def _parse_switch(self, method: MethodEntity):
        line = self.advance().line
        self._parse_parenthesized(method)
        self.expect("{")
        while not self.at("}"):
            if self.at_kind("eof"):
                self.fail("unexpected end of file inside switch")
            if self.at("case") or self.at("default"):
                if self.advance().text == "case":
                    while not (self.at(":") or self.at("->")):
                        if self.at_kind("eof"):
                            self.fail("unexpected end of file inside case label")
                        self.advance()
                if self.at("->"):
                    raise _Unsupported(line, "arrow case label")
                self.expect(":")
                continue
            self._parse_or_skip_statement(method)
        self.expect("}")

    def _looks_like_declaration(self) -> bool:
        """Lookahead: [final] IDENT(.IDENT)*([])* IDENT([])* followed by = , ; or :."""
        toks = self.tokens
        i = self.pos + 1 if self.at("final") else self.pos
        if toks[i].kind != "ident":
            return False
        i += 1
        while toks[i].text == "." and toks[i + 1].kind == "ident":
            i += 2
        i = self._pairs_end(i)
        if toks[i].kind != "ident":
            return False
        return toks[self._pairs_end(i + 1)].text in ("=", ",", ";", ":")

    def _parse_local_declaration(self, method: MethodEntity):
        if self.at("final"):
            self.advance()
        declared_type = self._parse_type_use()
        while True:
            name = self.expect_ident().text
            decl_type = declared_type + self._array_suffix()
            method.local_variables.append(LocalVariableEntity(name, decl_type))
            if self.at("="):
                self.advance()
                self._parse_expression(method)
            if self.at(","):
                self.advance()
                continue
            return

    # -- expressions -------------------------------------------------------

    def _parse_expression(self, method: MethodEntity):
        self._parse_binary(method)
        tok = self.peek()
        if tok.text == "=":
            self.advance()
            self._parse_expression(method)
        elif tok.text in ("+=", "-=", "*=", "/=", "%=", "?", "->", "++", "--"):
            raise _Unsupported(tok.line, f"operator {tok.text!r}")

    def _parse_binary(self, method: MethodEntity, min_level: int = 0):
        """Left-associative binary operators by precedence climbing."""
        self._parse_unary(method)
        while True:
            level = _BINARY_LEVELS.get(self.tokens[self.pos].text)
            if level is None or level < min_level:
                return
            self.pos += 1
            self._parse_binary(method, level + 1)

    def _parse_unary(self, method: MethodEntity):
        tok = self.peek()
        if tok.text in ("!", "-", "+"):
            self.advance()
            self._parse_unary(method)
        elif tok.text in ("++", "--", "~"):
            raise _Unsupported(tok.line, f"operator {tok.text!r}")
        else:
            self._parse_postfix(method)

    def _parse_postfix(self, method: MethodEntity):
        """A primary and its selectors; records the calls and the field
        access they make, each with the text of its receiver."""
        text = self._parse_primary(method)
        pending: tuple[str, str] | None = None  # (field name, receiver text)
        while True:
            tok = self.peek()
            if tok.text == "." and self.peek(1).kind == "ident":
                self.advance()
                name = self.advance().text
                # a call or a class literal T.class consumes everything
                # before it as receiver path
                pending = None
                if self.at("("):
                    self._parse_arguments(method)
                    method.invocations.append(InvocationRelation(name, text))
                    name += "()"
                elif name != "class":
                    pending = (name, text)
                text = f"{text}.{name}"
                continue
            if tok.text == "[":
                self.advance()
                self._parse_expression(method)
                self.expect_after_expression("]")
                text = f"{text}[]"
                continue
            break
        if pending is not None:
            method.accesses.append(AccessRelation(*pending))

    def _parse_arguments(self, method: MethodEntity):
        self.expect("(")
        self._parse_expression_list(method)

    def _parse_expression_list(self, method: MethodEntity):
        """Expressions separated by ',', up to and through a ')'."""
        if not self.at(")"):
            self._parse_expression(method)
            while self.at(","):
                self.advance()
                self._parse_expression(method)
        self.expect_after_expression(")")

    def _parse_parenthesized(self, method: MethodEntity):
        self.expect("(")
        self._parse_expression(method)
        self.expect_after_expression(")")

    def _parse_primary(self, method: MethodEntity) -> str:
        tok = self.peek()
        text = tok.text
        if tok.kind in ("number", "string", "char"):
            self.advance()
            return text
        if text == "(":
            self._parse_parenthesized(method)
            return "(...)"
        if text == "new":
            return self._parse_creation(method)
        if text in _CONSTRUCTOR_CALLS:
            if self.peek(1).text == "(":
                raise _Unsupported(tok.line, _CONSTRUCTOR_CALLS[text])
            self.advance()
            return text
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                self._parse_arguments(method)
                method.invocations.append(InvocationRelation(text, ""))
                return f"{text}()"
            return text
        raise _Unsupported(tok.line, f"token {text!r} in expression")

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

    # -- recovery --------------------------------------------------------

    def _skip_annotation(self):
        line = self.expect("@").line
        self.warn("annotations are not supported; annotation skipped", line)
        self._dotted_name()
        if self.at("("):
            self._skip("group")

    def _skip(self, rule: str):
        """Consume what the parser will not read, up to where rule ends the
        skip at bracket depth zero:

        - "statement": after a ';', or after a '{ }' block that nothing goes
          on from (see _goes_on);
        - "declarator": before a ',' or ';', or after such a block;
        - "group": after the bracket group that starts here;
        - "list": before a '{' or ')'.

        A closer closes its own bracket and the weaker ones still open
        inside it ('{' > '(' > '['); a ')' or ']' whose bracket is not open
        is skipped. A '}' with no '{' open ends the skip and is left in
        place. So does the end of the file, which is structural damage while
        a bracket is open.
        """
        opened: list[Token] = []
        while True:
            tok = self.peek()
            text = tok.text
            if tok.kind == "eof":
                if opened:
                    self.fail(f"unexpected end of file (unbalanced {opened[0].text!r})", opened[0].line)
                return
            if not opened:
                if rule == "declarator" and text in (",", ";") or rule == "list" and text in ("{", ")"):
                    return
                if rule == "statement" and text == ";":
                    self.advance()
                    return
            if text in _STRENGTH:
                opened.append(tok)
            elif text in _OPENER_OF:
                opener = _OPENER_OF[text]
                depth = len(opened)
                while depth and _STRENGTH[opened[depth - 1].text] < _STRENGTH[opener]:
                    depth -= 1
                if depth and opened[depth - 1].text == opener:
                    del opened[depth - 1:]
                    if not opened and (rule == "group" or text == "}" and not self._goes_on(self.peek(1))):
                        self.advance()
                        return
                elif text == "}":
                    return
            self.advance()

    @staticmethod
    def _goes_on(tok: Token) -> bool:
        """Whether tok, after the '}' of a block, goes on with the same
        statement or initializer: a selector, an operator, a ',' or a ';',
        or an else, catch or finally clause. Punctuation that only starts
        the next statement or member does not go on."""
        if tok.kind == "punct":
            return tok.text not in ("}", "@", "{", "(", "++", "--")
        return tok.kind == "ident" and tok.text in ("else", "catch", "finally")
