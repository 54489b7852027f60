"""lexalign: multilingual ontology alignment over a machine-readable dictionary.

The dictionary lives in seven linked tables, is queryable directly or
through a SPARQL-subset HTTP endpoint over a table-to-triple mapping,
and feeds string, structural and lexical matching strategies whose
result is scored against a reference alignment.
"""
