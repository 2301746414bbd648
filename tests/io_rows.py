"""Test-side adapters from io's columns to the shapes the frozen parsers and
grouping in io_reference.py take and return: a MotTable as the list of
records it holds, each with its `(path, line)` source, and Embeddings as a
dict of (frame, index) -> vector in line order."""
import math

import io_reference as ref


def records(t) -> list:
    """The rows of a MotTable as io_reference MotRecords, in table order."""
    x, y, w, h = t.boxes.T.tolist()
    ma = [None if math.isnan(v) else v for v in t.ma.tolist()]
    return list(map(ref.MotRecord, t.frame.tolist(), t.track_id.tolist(), x, y, w, h,
                    t.conf.tolist(), t.class_id.tolist(), t.visibility.tolist(), ma,
                    [(t.path, n) for n in t.line_nos]))


def embedding_dict(emb) -> dict:
    """Embeddings as io_reference's dict, or {} for None."""
    if emb is None:
        return {}
    return dict(zip(zip(emb.frame.tolist(), emb.index.tolist()), emb.vecs))
