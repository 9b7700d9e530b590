import numpy as np

from mubgeo.report import first_witnesses, witness

BLOCKS = np.arange(12).reshape(4, 3)  # four blocks of three rows, in label order


def walk(values, *limits, blocks=BLOCKS):
    """first_witnesses over rows holding values, one test per limit; which blocks each read.

    Test k names the first row of a block whose value exceeds limits[k].
    """
    built, asked = [], [[] for _ in limits]

    def rows(block):
        built.append(int(block[0]))
        return values[block]

    def above(k, limit):
        def test(block, row_values):
            asked[k].append(int(block[0]))
            return witness(row_values > limit, lambda i: f"row {block[i]} above {limit}")

        return test

    found = first_witnesses(blocks, rows, *(above(k, x) for k, x in enumerate(limits)))
    return found, built, asked


VALUES = np.array([0, 0, 0, 0, 5, 0, 0, 0, 0, 9, 0, 9])


def test_blocks_are_read_in_order():
    assert walk(VALUES, 1) == (["row 4 above 1"], [0, 3], [[0, 3]])
    assert walk(VALUES, 1, blocks=BLOCKS[::-1]) == (["row 9 above 1"], [9], [[9]])


def test_each_test_keeps_its_first_witness():
    found, built, asked = walk(VALUES, 1, 6)
    assert found == ["row 4 above 1", "row 9 above 6"]
    assert built == [0, 3, 6, 9]
    assert asked == [[0, 3], [0, 3, 6, 9]]


def test_no_offending_row_gives_no_witness():
    assert walk(np.zeros(12), 1, 6) == (["", ""], [0, 3, 6, 9], [[0, 3, 6, 9]] * 2)


def test_no_block_is_built_once_every_test_has_a_witness():
    found, built, _ = walk(VALUES, 1, 4)
    assert found == ["row 4 above 1", "row 4 above 4"]
    assert built == [0, 3]
