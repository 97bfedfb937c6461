"""The CSV artifacts as ``csv.writer`` writes them.

``reports.write_csv`` formats a whole table in one ``%`` operation; these
writers are the row-by-row ``csv`` module code it replaced, kept as the
oracle that its tables and those of its callers are compared against byte
for byte.
"""
import csv

import numpy as np


def write_rows(path, header, rows):
    """The header and the rows through one ``csv.writer``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_dict_rows(path, fieldnames, rows):
    """samples.csv and chain.csv: row dicts through ``csv.DictWriter``."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(fieldnames))
        writer.writeheader()
        writer.writerows(rows)


def flow_csv(path, flow):
    """flow.csv: one row per (time step, particle)."""
    ts, n = flow.value_field.ts, flow.n_particles
    write_rows(path, ["t", "particle", "state", "control", "u_x"],
               zip(np.repeat(ts, n).tolist(), np.tile(np.arange(n), ts.size).tolist(),
                   flow.states.ravel().tolist(), flow.controls.ravel().tolist(),
                   flow.momenta.ravel().tolist()))


def trace_csv(path, traces, columns):
    """trace.csv: one row per (direction, level), Xi empty for a kind that
    does not write it."""
    rows = []
    for trace in traces:
        levels = trace.ts.size
        xi = trace.series.tolist() if trace.kind.writes_xi else [""] * levels
        rows += zip(
            [trace.direction] * levels, trace.ts.tolist(), trace.i_vals.tolist(),
            trace.ibar_vals.tolist(), trace.dx2_vals.tolist(), xi,
            trace.slope(trace.i_vals).tolist(), trace.dt_i_rhs.tolist(),
            trace.dt_ibar_rhs.tolist(), trace.dt_dx2_rhs.tolist(),
            trace.cd_disp_rhs.tolist(),
            trace.slope(trace.i_vals + trace.ibar_vals).tolist())
    write_rows(path, columns, rows)
