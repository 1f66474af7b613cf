from specloc.svgplot import eigenvalue_scatter


def test_negative_signature_marks_the_negative_eigenvalues_nearest_zero():
    # sorted: -3, -2, -1, -0.5, 0.5, 2 at x = 45 + 78 i; signature -2 marks
    # the two negative eigenvalues closest to zero, i = 2 and 3, as diamonds
    svg = eigenvalue_scatter([0.5, -1.0, 2.0, -3.0, -0.5, -2.0], -2, "negative")
    assert svg.count("<path") == 2
    assert "M 201.00 " in svg and "M 279.00 " in svg
    assert svg.count('fill="#1f77b4"') == 2  # -3 and -2 stay circles
    assert svg.count('fill="#ff7f0e"') == 2
    assert "signature = -2" in svg
