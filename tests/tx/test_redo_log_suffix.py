"""The redo log's O(1) suffix count against a brute-force scan.

``RedoLog.suffix_length`` (records since the last checkpoint) is read by
the service after every quiescent event when ``max_log_records`` is set,
so it must not scan the log. It is maintained incrementally across
appends, checkpoint installs, uncommitted-record truncation, direct
extension of ``records``, construction from records, and recovery.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.object_model import ObjectKind
from repro.tx.recovery import (
    CheckpointSnapshot,
    RedoLog,
    RedoRecord,
    recover_with_info,
)


def _snapshot(index):
    return CheckpointSnapshot(
        event_index=index, objects=(), pointers=(), roots=(), unlinked=()
    )


def _brute_suffix(log):
    records = log.records
    for index in range(len(records) - 1, -1, -1):
        if records[index].kind == "checkpoint":
            return len(records) - index - 1, records[index].checkpoint
    return len(records), None


_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "begin", "commit", "abort", "root", "checkpoint-record",
                "install", "truncate", "extend", "rebuild", "recover",
            ]
        ),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=60,
)


@given(ops=_ops)
@settings(max_examples=200, deadline=None)
def test_suffix_length_matches_a_scan(ops):
    log = RedoLog()
    for step, (op, txid) in enumerate(ops):
        if op == "begin":
            log.begin(txid)
        elif op == "commit":
            log.commit(txid)
        elif op == "abort":
            log.abort(txid)
        elif op == "root":
            # A root must name an object the replayed store holds, so the
            # same transaction creates it first; the step keeps oids unique.
            # Both records replay only if the transaction commits.
            log.create(txid, step, 64, ObjectKind.GENERIC, ())
            log.root(txid, step)
        elif op == "checkpoint-record":
            log.append(RedoRecord("checkpoint", 0, checkpoint=_snapshot(step)))
        elif op == "install":
            log.install_checkpoint(_snapshot(step))
        elif op == "truncate":
            log.truncate_uncommitted()
        elif op == "extend":
            log.records.extend([RedoRecord("begin", txid), RedoRecord("abort", txid)])
        elif op == "rebuild":
            log = RedoLog(records=list(log.records))
        else:
            recover_with_info(log)
        suffix, checkpoint = _brute_suffix(log)
        assert log.suffix_length == suffix
        assert log.last_checkpoint() is checkpoint


def test_records_stay_immutable_comparable_and_picklable():
    record = RedoRecord("write", 3, 7, slot="next", target=9, dies=(4, 5))
    assert record == RedoRecord("write", 3, 7, None, None, (), "next", 9, (4, 5))
    assert pickle.loads(pickle.dumps(record)) == record
    assert hash(record) == hash(pickle.loads(pickle.dumps(record)))
    with pytest.raises(AttributeError):
        record.txid = 4
