package main

// Placement seed pools. Every workload draws its placement seeds from its
// pool, so the inputs of a run depend on --seed alone and not on the code
// under test.
//
// For some seeds the Compact-2.5D floorplan leaves a chiplet without a legal
// position on the placer's 1 mm grid, and the flow fails before it anneals.
// Each pool lists seeds whose start legalized at the workload's compact step
// budget (the default for the flows, 400 for the service jobs) when the pool
// was made. A change that makes one of them fail fails the run; it does not
// change which seeds are run.

// e1Seeds are flow seeds s of multigpu for which runs s and s+1 both start
// legally.
var e1Seeds = []int64{
	1, 3, 5, 7, 11, 14, 16, 19, 21, 23, 25, 27, 31, 33, 35, 37, 39, 41, 43, 45, 47, 49, 51, 59,
	64, 66, 68, 71, 73, 77, 79, 81, 83, 85, 88, 92, 94, 97, 101, 103, 106, 108, 110, 112, 114,
	116, 118, 122, 124, 126, 128, 130, 132, 134, 136, 138, 142, 144, 148, 151, 153, 155, 157, 163,
}

// cpudramSeeds are flow seeds of cpudram that start legally.
var cpudramSeeds = []int64{
	1, 2, 3, 4, 6, 13, 16, 18, 20, 27, 29, 30, 35, 37, 39, 42, 43, 45, 55, 57, 59, 61, 64, 70,
	74, 76, 82, 83, 84, 86, 91, 93, 94, 96, 99, 103, 109, 113, 119, 121, 125, 126, 129, 130, 135,
	136, 138, 139, 142, 145, 148, 150, 159, 161, 164, 165, 171, 173, 176, 179, 181, 185, 187, 188,
}

// serviceSeeds are job seeds of multigpu that start legally at 400 compact
// steps.
var serviceSeeds = []int64{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
	27, 28, 29, 32, 33, 34, 35, 36, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 51, 52, 53, 54,
	55, 56, 57, 59, 60, 61, 62, 64, 66, 67, 68, 69, 70, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 84,
	85, 86, 87, 91, 93, 94, 95, 96, 97, 98, 99, 100, 101, 103, 104, 105, 106, 107, 108, 109, 110,
	111, 112, 113, 114, 115, 116, 117, 119, 120, 121, 122, 123, 124, 125, 126, 128, 129, 130, 132,
	133, 134, 135, 136, 138, 139, 140, 141, 142, 143, 145, 146, 147, 148, 149, 150, 151, 153, 154,
	155, 156, 157, 158, 159, 160, 161, 162, 164, 165, 166, 167, 168, 169, 171, 172, 173, 174, 175,
	176, 178, 179, 180, 181, 183, 184, 185, 186, 187, 188, 189, 190, 191, 192, 193, 194, 197, 199,
	200, 201, 203, 204, 205, 206, 207, 208, 209, 210, 211, 213, 214, 215, 217, 219, 220, 221, 222,
	223, 224, 225, 227, 228, 229, 230, 231, 232, 233, 234, 235, 236, 237, 238, 239, 240, 241, 242,
	243, 244, 245, 246, 247, 248, 249, 250, 252, 253, 255, 258, 259, 260, 261, 262, 263, 266, 267,
	268, 269, 271, 272, 273, 274, 276, 277, 278, 279, 280, 281, 282, 283, 284, 285, 286, 287, 288,
	289, 290, 292, 293, 294, 295, 296, 297, 298,
}

// pick returns n seeds of pool for run seed: the window of pool that starts
// at position seed·n, wrapping around, so neighbouring run seeds take
// neighbouring windows.
func pick(pool []int64, seed int64, n int) []int64 {
	l := int64(len(pool))
	start := (seed*int64(n)%l + l) % l
	out := make([]int64, n)
	for i := range out {
		out[i] = pool[(start+int64(i))%l]
	}
	return out
}
