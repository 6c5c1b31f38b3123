module jord/benchmark

go 1.24

require jord v0.0.0

replace jord => ../
