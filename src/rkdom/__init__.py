"""Exact computation for Roman k-domination and Roman (k,k)-domatic numbers.

The package validates labelings and families, computes gamma_k, gamma_kR,
d_k and d_R^k exactly at desk scale, materializes the known extremal
constructions, and checks every known bound as an executable property.

Each public name is imported from its module on first access (PEP 562),
so importing the package, or `rkdom.cli` for one subcommand, loads only
the modules that are used.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_MODULE_OF = {name: module for module, names in (
    ("bounds", ("BipartiteWitness", "BoundRecord", "SolvedValues",
                "check_graph", "check_nordhaus_gaddum", "report_csv_rows",
                "report_dict", "report_json", "solve_all",
                "surplus_bipartite_witness", "violations")),
    ("constructions", ("closed_form_d_rk", "closed_form_gamma_kr",
                       "family_balanced_bipartite", "family_complete",
                       "family_from_balanced_subgraphs",
                       "family_kdelta_sharpness", "family_near_order",
                       "family_nontrivial")),
    ("domatic", ("Family", "VertexPartition", "d_k_exact", "d_rk_exact",
                 "validate_family", "validate_partition")),
    ("graphs", ("ConstructionError", "FamilySpec", "Graph", "GuardError",
                "ParseError", "complement", "complete_bipartite_parts",
                "encode_graph6", "generate", "parse_edge_list",
                "parse_graph6")),
    ("oracles", ("d_rk_oracle", "gamma_k_oracle", "gamma_kr_oracle")),
    ("roman", ("EnumerationResult", "Labeling", "SolveResult", "Violation",
               "enumerate_rkdfs", "gamma_k_exact", "gamma_kr_exact",
               "is_k_dominating", "labeling_from_string",
               "labeling_to_string", "validate_rkdf", "weight")),
) for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value     # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
