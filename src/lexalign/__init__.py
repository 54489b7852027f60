"""lexalign: multilingual ontology alignment over a machine-readable dictionary.

The dictionary lives in seven linked tables, is queryable directly or
through a SPARQL-subset HTTP endpoint over a table-to-triple mapping,
and feeds string, structural and lexical matching strategies whose
result is scored against a reference alignment.
"""

from .aligner import (
    Alignment,
    Correspondence,
    MatchConfig,
    Metrics,
    align,
    evaluate,
    read_alignment,
    write_alignment,
)
from .dictstore import DictionaryStore, ingest_tables, open_store
from .errors import LexalignError
from .labelkit import (
    DictionaryTranslator,
    EndpointTranslator,
    StaticTableTranslator,
    TranslatedLabel,
    tokenize,
    translate_label,
)
from .lexiserve import ServiceConfig, client_reverse_translate, client_translate, serve
from .ontomodel import EntityId, Kind, Ontology, load_ontology, load_ontology_file
from .sparqlet import Query, ResultTable, evaluate as evaluate_query, parse_query, plan_order
from .strsim import SwScoring, jaro, jaro_winkler, smith_waterman, sw_normalized
from .structsim import ExpansionConfig, WeightedTree, expand_tree, subclass_rule, tree_similarity, triple_rule
from .taxsim import JCN_MAX, Thesaurus, jcn_similarity, lcs, lexical_match, load_thesaurus
from .triplemap import to_triples

__version__ = "0.1.0"
