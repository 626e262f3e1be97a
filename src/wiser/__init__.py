"""Toolkit for converting AMR-style corpora to the WISeR role scheme and
evaluating semantic graphs with Smatch-family metrics."""

__version__ = "0.1.0"

from .align import Alignment
from .codec import (
    ParseError,
    canonical_serialize,
    parse_graph,
    read_corpus,
    read_corpus_text,
    serialize_graph,
    write_corpus,
)
from .convert import (
    ConversionConfig,
    ConversionReport,
    convert_corpus,
    convert_graph,
    split_corpus,
    split_sense,
    strip_sense,
    trim_corpus,
)
from .frames import Catalog, FrameArgument, catalog_stats, ftag_by_arg, load_catalog, vnrole_by_arg
from .graph import GraphError, SemGraph, Triple, canonical_triples, extract_triples, normalize
from .metrics import (
    ScoreEntry,
    corpus_stats,
    fine_grained,
    iaa_report,
    novel_predicate_recall,
    pair_by_id,
    score_corpus,
    smatch,
    smatch_exact,
    xsrl_role_set,
)
from .rules import (
    MappingRule,
    MappingResult,
    OverrideTable,
    compile_rules,
    load_overrides,
    map_argument,
    map_catalog,
    noncore_relabel,
)
