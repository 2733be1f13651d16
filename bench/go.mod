module pathhist/bench

go 1.24

require pathhist v0.0.0

replace pathhist => ../
