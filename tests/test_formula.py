import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latreg import Direction, FormulaError, ModelSpec, UNITY, parse_model

_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
_TERMS = st.one_of(st.just(UNITY),
                   st.lists(_NAMES, min_size=1, max_size=3)
                   .map(lambda factors: Direction(*factors)))


@st.composite
def model_specs(draw):
    response = draw(st.one_of(st.just(UNITY), _NAMES.map(Direction)))
    regressors = draw(st.lists(_TERMS.filter(lambda d: d != response),
                               min_size=1, max_size=3, unique=True))
    return ModelSpec(response=response, regressors=tuple(regressors))


class TestParseModel:
    def test_implicit_two_terms(self):
        spec = parse_model("1 = x + y")
        assert spec.response == UNITY
        assert spec.regressors == (Direction("x"), Direction("y"))

    def test_explicit_with_intercept(self):
        spec = parse_model("y = 1 + x")
        assert spec.response == Direction("y")
        assert spec.regressors == (UNITY, Direction("x"))

    def test_interaction_term(self):
        spec = parse_model("1 = x + y + x*y")
        assert spec.regressors == (Direction("x"), Direction("y"),
                                   Direction("x", "y"))

    def test_higher_order_product(self):
        spec = parse_model("1 = x + x*x")
        assert spec.regressors[1] == Direction("x", "x")

    def test_whitespace_insensitive(self):
        assert parse_model("1=x+y") == parse_model("  1  =  x  +  y  ")

    def test_underscore_names(self):
        spec = parse_model("wind_speed = 1 + air_temp")
        assert spec.response == Direction("wind_speed")

    def test_single_regressor(self):
        spec = parse_model("1 = y")
        assert spec.regressors == (Direction("y"),)

    @settings(max_examples=300, deadline=None)
    @given(spec=model_specs())
    def test_label_round_trip(self, spec):
        label = spec.label
        assert parse_model(label) == spec
        assert parse_model(label.replace(" ", "")) == spec
        assert parse_model(label.replace(" ", "  ")) == spec


class TestParseErrors:
    # Every message, with its exact text and position.  The whole text is
    # tokenized first, so "?" is reported before the missing "="; a unity
    # before "*" fails before the next factor is read; a Unicode digit
    # is a number token.
    @pytest.mark.parametrize("text, message, position", [
        ("y + x ?", "unexpected character '?'", 6),
        ("y = \u0661", "only the constant 1 is allowed, not '\u0661'", 4),
        ("1.0 = x", "only the constant 1 is allowed, not '1.0'", 0),
        ("y = x*2", "only the constant 1 is allowed, not '2'", 6),
        ("y = x *", "expected a column name or 1", 7),
        ("", "expected a column name or 1", 0),
        ("y = 1*x", "the constant 1 may not appear inside a product", 4),
        ("y = 1*2", "the constant 1 may not appear inside a product", 4),
        ("y = x*1", "the constant 1 may not appear inside a product", 6),
        ("y = + x", "expected a column name or 1, got '+'", 4),
        ("x*y = 1", "expected '=' after the response", 1),
        ("y = x x", "expected '+' or end of expression, got 'x'", 6),
    ])
    def test_message_and_position(self, text, message, position):
        with pytest.raises(FormulaError) as excinfo:
            parse_model(text)
        assert str(excinfo.value) == f"{message} (position {position})"
        assert excinfo.value.position == position

    def test_unexpected_character_position(self):
        with pytest.raises(FormulaError) as excinfo:
            parse_model("1 = x ? y")
        assert excinfo.value.position == 6
        assert "position 6" in str(excinfo.value)

    def test_missing_equals(self):
        with pytest.raises(FormulaError) as excinfo:
            parse_model("y + x")
        assert excinfo.value.position == 2

    def test_missing_rhs(self):
        with pytest.raises(FormulaError):
            parse_model("y =")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaError) as excinfo:
            parse_model("y = x x")
        assert excinfo.value.position == 6

    def test_only_literal_one_allowed(self):
        with pytest.raises(FormulaError) as excinfo:
            parse_model("y = 2 + x")
        assert excinfo.value.position == 4

    def test_operator_in_place_of_a_term(self):
        with pytest.raises(FormulaError) as excinfo:
            parse_model("y = + x")
        assert excinfo.value.position == 4
        assert str(excinfo.value) == ("expected a column name or 1, got '+' "
                                      "(position 4)")

    def test_unity_not_allowed_in_product(self):
        with pytest.raises(FormulaError):
            parse_model("y = x*1")
        with pytest.raises(FormulaError):
            parse_model("y = 1*x")

    def test_product_response_rejected(self):
        with pytest.raises(FormulaError) as excinfo:
            parse_model("x*y = 1 + x")
        assert excinfo.value.position == 1  # caret at the '*'

    def test_empty_expression(self):
        with pytest.raises(FormulaError):
            parse_model("")

    def test_semantic_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            parse_model("1 = x + x")  # duplicate regressor
        with pytest.raises(ValueError):
            parse_model("y = x + y")  # response repeated on the right
