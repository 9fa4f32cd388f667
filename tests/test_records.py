"""The record types' contract: constructor fields, repr, equality by fields
within one type only, hashing, immutability and pickling, also for the codes
that hold cached tables."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import delcode
from delcode import (
    MultFreeCodeSpec,
    PermCodeBook,
    SetCode,
    SimulationReport,
    VTParams,
    Word,
    best_class,
    code_size,
    decode,
    encode_index,
    greedy_sd_code,
    is_codeword,
    verify_sd_property,
    verify_ud_property,
)
from delcode.model import Record


def _vt(a=(1, 3)):
    return VTParams(12, 5, 2, 13, a)


def _book(*images):
    return PermCodeBook(3, 1, images)


def _spec():
    sets = (0b00011111, 0b11111000)
    book = PermCodeBook(5, 2, ((1, 2, 3, 4, 5),))
    return MultFreeCodeSpec(8, 5, 2, "stable", SetCode(8, 5, 2, sets=sets), book)


def _tally(seed=7):
    return SimulationReport(4, 1, seed, 3, 1, {0: {"trials": 2}, 1: {"trials": 2}})


# type -> (make an instance, make an equal one, make one differing in a field, its repr)
RECORDS = {
    "Word": (
        lambda: Word((0, 2), 3),
        lambda: Word([0, 2], 3, True),  # the flag only checks the symbols
        lambda: Word((0, 2), 4),
        "Word(symbols=(0, 2), alphabet_size=3)",
    ),
    "VTParams": (
        _vt,
        lambda: _vt([1, 3]),
        lambda: _vt((1, 4)),
        "VTParams(q=12, n=5, t=2, p=13, a=(1, 3))",
    ),
    "SetCode": (
        lambda: SetCode.from_vt(_vt()),
        lambda: SetCode(12, 5, 2, vt=_vt()),
        lambda: SetCode.from_vt(_vt((0, 0))),
        "SetCode(q=12, n=5, t=2, vt=VTParams(q=12, n=5, t=2, p=13, a=(1, 3)), sets=None)",
    ),
    "PermCodeBook": (
        lambda: _book((2, 1, 3), (1, 2, 3)),
        lambda: _book((1, 2, 3), (2, 1, 3)),
        lambda: _book((1, 2, 3)),
        "PermCodeBook(n=3, t=1, codewords=((1, 2, 3), (2, 1, 3)))",
    ),
    "MultFreeCodeSpec": (
        _spec,
        _spec,
        lambda: MultFreeCodeSpec(8, 5, 2, "stable", SetCode(8, 5, 2, sets=(0b00011111,)), _spec().perm_code),
        "MultFreeCodeSpec(q=8, n=5, t=2, mode='stable', set_code=SetCode(q=8, n=5, t=2, vt=None, "
        "sets=(31, 248)), perm_code=PermCodeBook(n=5, t=2, codewords=((1, 2, 3, 4, 5),)))",
    ),
    "SimulationReport": (
        _tally,
        _tally,
        lambda: _tally(8),
        "SimulationReport(trials=4, t_max=1, seed=7, successes=3, failures=1, "
        "by_weight={0: {'trials': 2}, 1: {'trials': 2}})",
    ),
}

# the tally holds a dict, so it is the one record without a hash
UNHASHABLE = {"SimulationReport"}


def test_every_record_type_has_a_contract_case():
    # every module but the entry point, so each subclass of Record the package defines is loaded
    for module in pkgutil.iter_modules(delcode.__path__):
        if module.name != "__main__":
            importlib.import_module(f"delcode.{module.name}")
    defined, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("delcode."):
                defined.add(cls.__name__)
    assert defined == set(RECORDS)


def _field_names(value):
    return [name for name in type(value).__slots__ if name != "__dict__"]


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordContract:
    def test_repr(self, name):
        make, _, _, expected = RECORDS[name]
        assert repr(make()) == expected

    def test_equality_by_fields(self, name):
        make, make_equal, make_other, _ = RECORDS[name]
        value = make()
        assert value == make_equal() and not value != make_equal()
        assert value != make_other() and not value == make_other()

    def test_never_equal_across_types(self, name):
        value = RECORDS[name][0]()
        fields = tuple(getattr(value, field) for field in _field_names(value))
        assert value != fields and value != fields[0]
        for other in sorted(set(RECORDS) - {name}):
            assert value != RECORDS[other][0]()

    def test_hash(self, name):
        make, make_equal, _, _ = RECORDS[name]
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(make())
        else:
            assert hash(make()) == hash(make_equal())
            assert len({make(), make_equal()}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value = RECORDS[name][0]()
        for field in _field_names(value):
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before

    def test_pickle_and_copy_keep_the_fields(self, name):
        value = RECORDS[name][0]()
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)


def _components(spec):
    return {"VTParams": spec.set_code.vt, "SetCode": spec.set_code, "PermCodeBook": spec.perm_code}


def _fresh_spec():
    p = 13
    vt = VTParams(12, 5, 2, p, best_class(12, 5, 2, p)[0])
    return MultFreeCodeSpec(12, 5, 2, "stable", SetCode.from_vt(vt), greedy_sd_code(5, 2))


def _filled_spec():
    """A spec after an encode, a two-deletion decode and the checks `verify`
    makes, so each of its codes holds every value it caches."""
    spec = _fresh_spec()
    x = encode_index(spec, code_size(spec) - 1)
    assert decode(spec, Word(x.symbols[2:], 12, True)) == x
    assert all(is_codeword(mask, spec.set_code.vt) for mask in spec.set_code.masks)
    assert verify_sd_property(spec.perm_code)
    verify_ud_property(spec.perm_code)  # false at t = 2; it is called to build the unstable index
    return spec


CACHED = {
    "VTParams": {"_packed_rows", "_lost_sets"},
    "SetCode": {"masks", "size"},
    "PermCodeBook": {"_stable_index", "_unstable_index"},
}


@pytest.mark.parametrize("name", sorted(CACHED))
class TestFilledCaches:
    def test_caches_are_filled(self, name):
        assert set(vars(_components(_filled_spec())[name])) == CACHED[name]
        assert vars(_components(_fresh_spec())[name]) == {}

    def test_contract_ignores_the_caches(self, name):
        filled, fresh = _components(_filled_spec())[name], _components(_fresh_spec())[name]
        assert filled == fresh and not filled != fresh
        assert hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
        assert pickle.dumps(filled) == pickle.dumps(fresh)

    def test_pickle_and_copy_leave_the_caches_behind(self, name):
        filled = _components(_filled_spec())[name]
        for clone in (pickle.loads(pickle.dumps(filled)), copy.deepcopy(filled), copy.copy(filled)):
            assert type(clone) is type(filled) and clone == filled and repr(clone) == repr(filled)
            assert vars(clone) == {}
