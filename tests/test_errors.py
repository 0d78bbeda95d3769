from dgla import presentation
from dgla.errors import ValidationReport, check_row


def test_check_row_reads_failures_only_up_to_the_first_witness():
    steps = []

    def failures():
        for k in range(5):
            steps.append(k)
            if k >= 1:
                yield ("case", k)

    assert check_row("c", failures()) == ("c", False, ("case", 1))
    assert steps == [0, 1]


def test_check_row_passes_on_no_failures():
    assert check_row("c", iter(())) == ("c", True, None)
    assert check_row("c", (k for k in range(3) if k > 5)) == ("c", True, None)


def test_a_falsy_witness_still_fails_the_row():
    assert check_row("c", [0]) == ("c", False, 0)


def test_report_rows_and_failures():
    rep = ValidationReport([check_row("a", ()), check_row("b", ["w"])])
    assert not rep.passed
    assert rep.failures() == [("b", "w")]
    assert ValidationReport([check_row("a", ())]).passed
    # the report is defined once and still resolves where it used to live
    assert presentation.ValidationReport is ValidationReport
