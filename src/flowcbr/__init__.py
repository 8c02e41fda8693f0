"""Classification-by-retrieval toolkit for encrypted network traffic.

Flows in, verdicts out: parse captures into bidirectional flows, extract a
fixed 183-slot statistical feature vector per flow, index labeled vectors in
an exact nearest-neighbor store, and classify by majority vote with
distance-based rejection and few-shot registration of new classes. A
from-scratch random forest serves as the comparison baseline and as the
second stage of the combined pipeline.
"""

from .cbr import (ClassRegistry, Thresholds, Verdict, VerdictKind,
                  calibrate_thresholds, classify, classify_stream, vote)
from .features import SCHEMA, FeatureSchema, Normalizer, extract_matrix, fit_normalizer
from .flows import (Direction, Flow, FlowKey, FlowPacket, PacketColumns,
                    Protocol, TcpFlags, assemble_flows, load_flows_csv,
                    parse_pcap, save_flows_csv)
from .forest import ForestConfig, RandomForest, train_forest
from .harness import (Metrics, PipelineConfig, compute_metrics, find_plateau,
                      new_class_protocol, packet_sweep, run_eval,
                      stratified_split)
from .index import Neighbor, NNIndex, row_distances
from .synth import ClassTemplate, default_templates, sweep_templates, synth_generate

__version__ = "0.1.0"

__all__ = [
    "SCHEMA",
    "ClassRegistry",
    "ClassTemplate",
    "Direction",
    "FeatureSchema",
    "Flow",
    "FlowKey",
    "FlowPacket",
    "ForestConfig",
    "Metrics",
    "NNIndex",
    "Neighbor",
    "Normalizer",
    "PacketColumns",
    "PipelineConfig",
    "Protocol",
    "RandomForest",
    "TcpFlags",
    "Thresholds",
    "Verdict",
    "VerdictKind",
    "assemble_flows",
    "calibrate_thresholds",
    "classify",
    "classify_stream",
    "compute_metrics",
    "default_templates",
    "extract_matrix",
    "find_plateau",
    "fit_normalizer",
    "load_flows_csv",
    "new_class_protocol",
    "packet_sweep",
    "parse_pcap",
    "row_distances",
    "run_eval",
    "save_flows_csv",
    "stratified_split",
    "sweep_templates",
    "synth_generate",
    "train_forest",
    "vote",
]
