"""Exact computation for Roman k-domination and Roman (k,k)-domatic numbers.

The package validates labelings and families, computes gamma_k, gamma_kR,
d_k and d_R^k exactly at desk scale, materializes the known extremal
constructions, and checks every known bound as an executable property.
"""

from .bounds import (BipartiteWitness, BoundRecord, SolvedValues,
                     check_graph, check_nordhaus_gaddum, report_csv_rows,
                     report_dict, report_json, solve_all,
                     surplus_bipartite_witness, violations)
from .constructions import (ConstructionError, closed_form_d_rk,
                            closed_form_gamma_kr, family_balanced_bipartite,
                            family_complete, family_from_balanced_subgraphs,
                            family_kdelta_sharpness, family_near_order,
                            family_nontrivial)
from .domatic import (Family, VertexPartition, d_k_exact, d_rk_exact,
                      d_rk_oracle, validate_family, validate_partition)
from .graphs import (FamilySpec, Graph, GuardError, ParseError, complement,
                     complete_bipartite_parts, encode_graph6,
                     generate, parse_edge_list, parse_graph6)
from .roman import (EnumerationResult, Labeling, SolveResult, Violation,
                    enumerate_rkdfs, gamma_k_exact, gamma_k_oracle,
                    gamma_kr_exact, gamma_kr_oracle, is_k_dominating,
                    labeling_from_string, labeling_to_string, validate_rkdf,
                    weight)

__version__ = "0.1.0"

__all__ = [
    "BipartiteWitness", "BoundRecord", "ConstructionError",
    "EnumerationResult", "Family", "FamilySpec", "Graph", "GuardError",
    "Labeling", "ParseError", "SolveResult", "SolvedValues",
    "VertexPartition", "Violation", "check_graph", "check_nordhaus_gaddum",
    "closed_form_d_rk", "closed_form_gamma_kr", "complement",
    "complete_bipartite_parts", "d_k_exact", "d_rk_exact", "d_rk_oracle",
    "encode_graph6", "enumerate_rkdfs",
    "family_balanced_bipartite", "family_complete",
    "family_from_balanced_subgraphs", "family_kdelta_sharpness",
    "family_near_order", "family_nontrivial", "gamma_k_exact",
    "gamma_k_oracle", "gamma_kr_exact", "gamma_kr_oracle", "generate", "is_k_dominating",
    "labeling_from_string", "labeling_to_string", "parse_edge_list",
    "parse_graph6", "report_csv_rows", "report_dict", "report_json",
    "solve_all", "surplus_bipartite_witness", "validate_family",
    "validate_partition", "validate_rkdf", "violations", "weight",
]
