"""The features-CSV writer and reader as first written, kept as a test oracle.

Both go one row at a time: the writer passes every row to ``csv.writer``
with each number as its repr, and the reader takes every row from
``csv.reader`` and every cell through ``float``. ``flowcbr.features`` must
write the same bytes, and read any file, well-formed or not, to the same
(matrix bits, flow ids, labels) or raise a ValueError with the same text.
"""

import csv

import numpy as np


def save_matrix_csv(path, matrix, flow_ids, labels):
    """Write a feature matrix with flow_id/label columns and f000.. headers."""
    if matrix.shape[0] != len(flow_ids) or matrix.shape[0] != len(labels):
        raise ValueError("matrix rows, flow_ids and labels must align")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flow_id", "label"] + [f"f{i:03d}" for i in range(matrix.shape[1])])
        for fid, label, row in zip(flow_ids, labels, matrix):
            writer.writerow([fid, label] + [repr(v) for v in row.tolist()])


def load_matrix_csv(path):
    """Read a feature matrix CSV back as (matrix, flow_ids, labels); a bad
    header, row or cell (not a finite number) is a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["flow_id", "label"]:
            raise ValueError("bad feature matrix header")
        width = len(header) - 2
        if [f"f{i:03d}" for i in range(width)] != header[2:]:
            raise ValueError("bad feature column names")
        flow_ids, labels, rows = [], [], []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"row for {row[0] if row else '?'} has wrong width")
            flow_ids.append(row[0])
            labels.append(row[1])
            rows.append([float(v) for v in row[2:]])
    matrix = np.array(rows) if rows else np.zeros((0, width))
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"row for {flow_ids[r]} has a non-finite {header[c + 2]} "
                         f"value {float(matrix[r, c])}")
    return matrix, flow_ids, labels
