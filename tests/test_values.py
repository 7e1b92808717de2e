"""Value semantics of the record classes: field order, equality by value, immutability, fresh defaults.

Each class is built from one list of field values in declaration order, by
position and by keyword. The frozen records must refuse attribute
assignment and hash by value; a report built without notes must get a
notes list of its own, and a report is a tuple of its five fields.
"""

from fractions import Fraction

import pytest

from polycauchy2 import CheckRow, ConjecturePolynomial, FormulaCheck, IdentityReport, IntegralCheck
from polycauchy2.convolution import CONVOLUTION_IDENTITIES, _ConvolutionIdentity


def _registry_fields():
    """The fields of the thm2 registry entry, in declaration order.

    The right-hand side is held by name (``rhs_name``) when the entry looks
    the function up as it is read, else as the function itself (``rhs``).
    """
    entry = CONVOLUTION_IDENTITIES["thm2"]
    rhs = ("rhs_name", entry.rhs_name) if hasattr(entry, "rhs_name") else ("rhs", entry.rhs)
    return [("offsets", (0, 0)), rhs, ("nmin", 0)]


# (class, [(field, value), ...] in declaration order, frozen)
RECORDS = {
    "CheckRow": (CheckRow, [("n", 3), ("lhs", Fraction(1, 3)), ("rhs", Fraction(1, 3)), ("equal", True)], True),
    "IdentityReport": (
        IdentityReport,
        [
            ("identity_name", "thm2"),
            ("nmax", 1),
            ("parameter_range", "n=0..1"),
            ("per_n_results", [CheckRow(0, Fraction(1), Fraction(1), True)]),
            ("notes", ["a note"]),
        ],
        False,
    ),
    "_ConvolutionIdentity": (_ConvolutionIdentity, _registry_fields(), True),
    "ConjecturePolynomial": (
        ConjecturePolynomial,
        [
            ("r", 1),
            ("k", 1),
            ("coefficients", [Fraction(9), Fraction(-12), Fraction(4)]),
        ],
        False,
    ),
    "IntegralCheck": (
        IntegralCheck,
        [
            ("n", 2),
            ("k", 1),
            ("polynomial_match", True),
            ("value_match", False),
            ("integral_value", Fraction(-1, 3)),
            ("reference_value", Fraction(1, 3)),
        ],
        True,
    ),
    "FormulaCheck": (
        FormulaCheck,
        [("name", "[[n,1]]"), ("ok", False), ("first_failure", (2, Fraction(1), Fraction(2)))],
        True,
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


@pytest.fixture(params=sorted(name for name, (_, _, frozen) in RECORDS.items() if frozen))
def frozen_record(request):
    return RECORDS[request.param]


def test_positional_and_keyword_construction_agree(record):
    cls, fields, _ = record
    values = [value for _, value in fields]
    by_position = cls(*values)
    by_keyword = cls(**dict(fields))
    assert by_position == by_keyword
    for name, value in fields:
        assert getattr(by_position, name) == value, name
        assert getattr(by_position, name) is value, name


def test_equal_by_value(record):
    cls, fields, _ = record
    copies = [cls(**{name: value for name, value in fields}) for _ in range(2)]
    assert copies[0] is not copies[1]
    assert copies[0] == copies[1]
    assert not copies[0] != copies[1]
    # Changing any one field breaks equality.
    for name, value in fields:
        changed = dict(fields)
        changed[name] = None if value is not None else 0
        assert cls(**changed) != copies[0], name


def test_frozen_records_refuse_assignment_and_hash_by_value(frozen_record):
    cls, fields, _ = frozen_record
    instance = cls(**dict(fields))
    for name, value in fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, value)
        assert getattr(instance, name) is value
    assert hash(instance) == hash(cls(**dict(fields)))
    assert len({instance, cls(**dict(fields))}) == 1


def test_reports_without_notes_do_not_share_a_list():
    first = IdentityReport("thm2", 0, "n=0..0", [])
    second = IdentityReport("thm2", 0, "n=0..0", [])
    assert first.notes == [] and second.notes == []
    assert first.notes is not second.notes
    first.notes.append("only the first")
    assert second.notes == []
    assert IdentityReport("thm2", 0, "n=0..0", []).notes == []


def test_identity_report_is_a_tuple_of_its_five_fields():
    report = IdentityReport("thm2", 0, "n=0..0", [])
    assert IdentityReport._fields == ("identity_name", "nmax", "parameter_range", "per_n_results", "notes")
    assert isinstance(report, tuple)
    assert tuple(report) == ("thm2", 0, "n=0..0", [], [])


def test_identity_report_repr_names_every_field():
    row = CheckRow(2, Fraction(1, 3), Fraction(1, 3), True)
    report = IdentityReport("conjecture", 12, "r=1, samples n=2..11", [row], ["P[0] = 1"])
    assert repr(report) == (
        "IdentityReport(identity_name='conjecture', nmax=12, parameter_range='r=1, samples n=2..11', "
        "per_n_results=[CheckRow(n=2, lhs=Fraction(1, 3), rhs=Fraction(1, 3), equal=True)], notes=['P[0] = 1'])"
    )
