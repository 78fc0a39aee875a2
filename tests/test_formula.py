import pytest

from latreg import Direction, FormulaError, UNITY, parse_model


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


class TestParseErrors:
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
