"""oodoc: static analysis and graph documentation of object-oriented code."""

from .documents import (
    DOCUMENT_KINDS,
    DocumentGraph,
    gen_class_content_document,
    gen_class_dependency_document,
    gen_class_information_document,
    gen_method_content_document,
    gen_method_dependency_document,
    gen_method_information_document,
    gen_package_document,
)
from .dot import serialize_dot, validate_dot
from .errors import (
    ConsistencyError,
    DotParseError,
    InputError,
    ModelError,
    OodocError,
    ParseFailure,
    SchemaError,
)
from .evaluation import extract_links, precision_recall
from .metrics import MetricsRecord, class_metrics, project_metrics
from .model import (
    AccessRelation,
    AttributeEntity,
    ClassEntity,
    InvocationRelation,
    LocalVariableEntity,
    MethodEntity,
    Package,
    Parameter,
    Project,
    TypeRef,
    build_model,
    resolve_references,
)
from .parsing import FileSyntaxTree, parse_file, parse_files
from .sources import SourceFile, scan_directory
from .xmlio import parse_model, serialize_model, write_model

__version__ = "0.1.0"

__all__ = [
    "AccessRelation",
    "AttributeEntity",
    "ClassEntity",
    "ConsistencyError",
    "DOCUMENT_KINDS",
    "DocumentGraph",
    "DotParseError",
    "FileSyntaxTree",
    "InputError",
    "InvocationRelation",
    "LocalVariableEntity",
    "MethodEntity",
    "MetricsRecord",
    "ModelError",
    "OodocError",
    "Package",
    "Parameter",
    "ParseFailure",
    "Project",
    "SchemaError",
    "SourceFile",
    "TypeRef",
    "build_model",
    "class_metrics",
    "extract_links",
    "gen_class_content_document",
    "gen_class_dependency_document",
    "gen_class_information_document",
    "gen_method_content_document",
    "gen_method_dependency_document",
    "gen_method_information_document",
    "gen_package_document",
    "parse_file",
    "parse_files",
    "parse_model",
    "precision_recall",
    "project_metrics",
    "resolve_references",
    "scan_directory",
    "serialize_dot",
    "serialize_model",
    "validate_dot",
    "write_model",
]
